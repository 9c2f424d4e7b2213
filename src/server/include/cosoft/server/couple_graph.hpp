// The couple relation C (§3).
//
// "A couple link is a directed arc from the source UI object to the
// destination UI object, labeled with the application instance identifier
// which creates the link. The couple relation C consists of all pairs of UI
// objects connected by a couple link. To compute the set of objects CO(o)
// connected to or coupled with a given object o, we use the transitive
// closure of C."
//
// Links are stored directed (with creator label) for bookkeeping; closure is
// computed over the undirected reachability, matching the paper's use of
// "connected".
#pragma once

#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/common/error.hpp"
#include "cosoft/common/ids.hpp"

namespace cosoft::server {

struct CoupleLink {
    ObjectRef source;
    ObjectRef dest;
    InstanceId creator = kInvalidInstance;
    static constexpr auto fields() { return std::tuple{&CoupleLink::source, &CoupleLink::dest, &CoupleLink::creator}; }
    friend auto operator<=>(const CoupleLink&, const CoupleLink&) = default;
};

class CoupleGraph {
  public:
    /// Adds a link; rejects self-links and duplicates (either direction).
    Status add_link(const ObjectRef& source, const ObjectRef& dest, InstanceId creator);

    /// Removes a link (matches either direction).
    Status remove_link(const ObjectRef& source, const ObjectRef& dest);

    /// Removes every link touching `ref` (widget destroyed). Returns the
    /// objects that shared a group with it (for re-broadcast).
    std::vector<ObjectRef> remove_object(const ObjectRef& ref);

    /// Removes every link touching any object of `instance` (termination).
    /// Returns all surviving objects whose group changed.
    std::vector<ObjectRef> remove_instance(InstanceId instance);

    /// CO(o) ∪ {o}: the full membership of o's group. A lone object yields
    /// just {o}.
    [[nodiscard]] std::vector<ObjectRef> group_of(const ObjectRef& ref) const;

    /// CO(o): the objects coupled with o, excluding o itself.
    [[nodiscard]] std::vector<ObjectRef> coupled_with(const ObjectRef& ref) const;

    [[nodiscard]] bool contains(const ObjectRef& ref) const noexcept;
    [[nodiscard]] bool linked(const ObjectRef& a, const ObjectRef& b) const noexcept;
    [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
    [[nodiscard]] std::size_t object_count() const noexcept { return adjacency_.size(); }
    [[nodiscard]] const std::vector<CoupleLink>& links() const noexcept { return links_; }

    /// Splits `objects` into connected components under the current relation
    /// (objects with no remaining links become singleton components).
    [[nodiscard]] std::vector<std::vector<ObjectRef>> components_of(const std::vector<ObjectRef>& objects) const;

    /// Structural invariants, checked in COSOFT_CHECKED builds and by tests:
    /// the link list and the adjacency index must describe the same simple,
    /// symmetric graph — no self links, no duplicates, no dangling adjacency
    /// entries. Returns human-readable violations (empty = consistent).
    [[nodiscard]] std::vector<std::string> check_invariants() const;

    /// Journal snapshot: the links in insertion order, direction kept. The
    /// adjacency index is derived, so restore() rebuilds it.
    void snapshot(ByteWriter& w) const;
    /// Replaces the graph with a snapshot() image. False on malformed input
    /// (the graph is left empty).
    [[nodiscard]] bool restore(ByteReader& r);
    /// Model-checker state hash: the same links as undirected pairs, sorted,
    /// so it depends on neither creation order nor direction.
    void fingerprint(ByteWriter& w) const;

  private:
    void unlink_adjacency(const ObjectRef& a, const ObjectRef& b);

    std::vector<CoupleLink> links_;
    std::unordered_map<ObjectRef, std::unordered_set<ObjectRef>> adjacency_;
};

}  // namespace cosoft::server
