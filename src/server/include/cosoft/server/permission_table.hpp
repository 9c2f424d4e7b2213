// Access permissions (§2.1): "three-valued tuples with user ID, UI state
// identifier, and access right category."
//
// A rule grants or denies a rights mask to one user (or all users) for an
// object and everything below it in the widget tree. Checks resolve to the
// most specific applicable rule (longest matching path, specific user beats
// wildcard); with no applicable rule access is granted — COSOFT's classroom
// default is open collaboration with selective restriction.
#pragma once

#include <string>
#include <tuple>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/common/ids.hpp"
#include "cosoft/protocol/messages.hpp"

namespace cosoft::server {

class PermissionTable {
  public:
    static constexpr UserId kAnyUser = kInvalidUser;

    /// Installs (or replaces) the rule for (user, object). `allow` false
    /// turns the rule into an explicit denial of `rights`.
    void set(UserId user, const ObjectRef& object, protocol::RightsMask rights, bool allow);

    /// Removes the exact rule; no-op when absent.
    void clear(UserId user, const ObjectRef& object);

    /// True when `user` holds `right` on `object`.
    [[nodiscard]] bool check(UserId user, const ObjectRef& object, protocol::Right right) const noexcept;

    void forget_instance(InstanceId instance);

    [[nodiscard]] std::size_t rule_count() const noexcept { return rules_.size(); }

    /// Structural invariants, checked in COSOFT_CHECKED builds and by tests:
    /// at most one rule per (user, object) pair, every rights mask within
    /// kAllRights, no rule with an empty mask (it could never apply), and no
    /// rule keyed to an invalid object instance. Returns human-readable
    /// violation descriptions (empty = consistent).
    [[nodiscard]] std::vector<std::string> check_invariants() const;

    /// Journal snapshot: the rules in insertion order.
    void snapshot(ByteWriter& w) const;
    /// Replaces the table with a snapshot() image. False on malformed input
    /// (the table is left empty).
    [[nodiscard]] bool restore(ByteReader& r);
    /// Model-checker state hash: the same rules sorted, so it does not depend
    /// on the order they were installed in.
    void fingerprint(ByteWriter& w) const;

    /// Instances referenced by at least one rule, deduplicated.
    [[nodiscard]] std::vector<InstanceId> referenced_instances() const;

  private:
    struct Rule {
        UserId user;
        ObjectRef object;
        protocol::RightsMask rights;
        bool allow;
        static constexpr auto fields() { return std::tuple{&Rule::user, &Rule::object, &Rule::rights, &Rule::allow}; }
        friend auto operator<=>(const Rule&, const Rule&) = default;
    };

    std::vector<Rule> rules_;
};

}  // namespace cosoft::server
