#include "cosoft/server/couple_graph.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "cosoft/protocol/field_codec.hpp"

namespace cosoft::server {

Status CoupleGraph::add_link(const ObjectRef& source, const ObjectRef& dest, InstanceId creator) {
    if (!source.valid() || !dest.valid()) {
        return Status{ErrorCode::kInvalidArgument, "couple link endpoints must be valid object refs"};
    }
    if (source == dest) {
        return Status{ErrorCode::kInvalidArgument, "cannot couple an object with itself"};
    }
    if (linked(source, dest)) {
        return Status{ErrorCode::kAlreadyCoupled, to_string(source) + " <-> " + to_string(dest)};
    }
    links_.push_back({source, dest, creator});
    adjacency_[source].insert(dest);
    adjacency_[dest].insert(source);
    return Status::ok();
}

Status CoupleGraph::remove_link(const ObjectRef& source, const ObjectRef& dest) {
    const auto it = std::find_if(links_.begin(), links_.end(), [&](const CoupleLink& l) {
        return (l.source == source && l.dest == dest) || (l.source == dest && l.dest == source);
    });
    if (it == links_.end()) {
        return Status{ErrorCode::kNotCoupled, to_string(source) + " <-> " + to_string(dest)};
    }
    links_.erase(it);
    unlink_adjacency(source, dest);
    return Status::ok();
}

void CoupleGraph::unlink_adjacency(const ObjectRef& a, const ObjectRef& b) {
    const auto erase_edge = [this](const ObjectRef& from, const ObjectRef& to) {
        const auto it = adjacency_.find(from);
        if (it == adjacency_.end()) return;
        it->second.erase(to);
        if (it->second.empty()) adjacency_.erase(it);
    };
    erase_edge(a, b);
    erase_edge(b, a);
}

std::vector<ObjectRef> CoupleGraph::remove_object(const ObjectRef& ref) {
    std::vector<ObjectRef> affected = coupled_with(ref);
    std::erase_if(links_, [&](const CoupleLink& l) { return l.source == ref || l.dest == ref; });
    const auto it = adjacency_.find(ref);
    if (it != adjacency_.end()) {
        const auto neighbours = it->second;  // copy: unlink mutates the map
        for (const ObjectRef& n : neighbours) unlink_adjacency(ref, n);
    }
    return affected;
}

std::vector<ObjectRef> CoupleGraph::remove_instance(InstanceId instance) {
    std::unordered_set<ObjectRef> affected;
    std::vector<ObjectRef> doomed;
    for (const auto& [ref, _] : adjacency_) {
        if (ref.instance == instance) doomed.push_back(ref);
    }
    for (const ObjectRef& ref : doomed) {
        for (const ObjectRef& peer : remove_object(ref)) {
            if (peer.instance != instance) affected.insert(peer);
        }
    }
    return {affected.begin(), affected.end()};
}

std::vector<ObjectRef> CoupleGraph::group_of(const ObjectRef& ref) const {
    std::vector<ObjectRef> out;
    std::unordered_set<ObjectRef> seen;
    std::deque<ObjectRef> frontier{ref};
    seen.insert(ref);
    while (!frontier.empty()) {
        ObjectRef cur = std::move(frontier.front());
        frontier.pop_front();
        out.push_back(cur);
        const auto it = adjacency_.find(cur);
        if (it == adjacency_.end()) continue;
        for (const ObjectRef& n : it->second) {
            if (seen.insert(n).second) frontier.push_back(n);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<ObjectRef> CoupleGraph::coupled_with(const ObjectRef& ref) const {
    std::vector<ObjectRef> group = group_of(ref);
    std::erase(group, ref);
    return group;
}

bool CoupleGraph::contains(const ObjectRef& ref) const noexcept { return adjacency_.contains(ref); }

bool CoupleGraph::linked(const ObjectRef& a, const ObjectRef& b) const noexcept {
    const auto it = adjacency_.find(a);
    return it != adjacency_.end() && it->second.contains(b);
}

std::vector<std::string> CoupleGraph::check_invariants() const {
    std::vector<std::string> out;
    std::size_t adjacency_edges = 0;
    for (const auto& [ref, neighbours] : adjacency_) {
        if (!ref.valid()) out.push_back("couple graph: invalid object in adjacency: " + to_string(ref));
        if (neighbours.empty()) {
            out.push_back("couple graph: " + to_string(ref) + " has an empty adjacency set");
        }
        adjacency_edges += neighbours.size();
        for (const ObjectRef& n : neighbours) {
            if (n == ref) out.push_back("couple graph: self edge on " + to_string(ref));
            const auto back = adjacency_.find(n);
            if (back == adjacency_.end() || !back->second.contains(ref)) {
                out.push_back("couple graph: asymmetric edge " + to_string(ref) + " -> " + to_string(n));
            }
        }
    }
    for (std::size_t i = 0; i < links_.size(); ++i) {
        const CoupleLink& l = links_[i];
        if (!l.source.valid() || !l.dest.valid() || l.source == l.dest) {
            out.push_back("couple graph: malformed link " + to_string(l.source) + " -> " + to_string(l.dest));
        }
        if (!linked(l.source, l.dest)) {
            out.push_back("couple graph: link " + to_string(l.source) + " -> " + to_string(l.dest) +
                          " missing from adjacency");
        }
        for (std::size_t j = i + 1; j < links_.size(); ++j) {
            const CoupleLink& m = links_[j];
            if ((m.source == l.source && m.dest == l.dest) || (m.source == l.dest && m.dest == l.source)) {
                out.push_back("couple graph: duplicate link " + to_string(l.source) + " <-> " + to_string(l.dest));
            }
        }
    }
    // Each undirected link contributes two adjacency entries; with symmetry
    // and no duplicates above, equality pins adjacency to exactly the links.
    if (adjacency_edges != 2 * links_.size()) {
        out.push_back("couple graph: " + std::to_string(links_.size()) + " links but " +
                      std::to_string(adjacency_edges) + " directed adjacency entries");
    }
    return out;
}

std::vector<std::vector<ObjectRef>> CoupleGraph::components_of(const std::vector<ObjectRef>& objects) const {
    std::vector<std::vector<ObjectRef>> out;
    std::unordered_set<ObjectRef> assigned;
    for (const ObjectRef& o : objects) {
        if (assigned.contains(o)) continue;
        std::vector<ObjectRef> comp = group_of(o);
        for (const ObjectRef& m : comp) assigned.insert(m);
        out.push_back(std::move(comp));
    }
    return out;
}

void CoupleGraph::snapshot(ByteWriter& w) const { protocol::encode_field(w, links_); }

bool CoupleGraph::restore(ByteReader& r) {
    links_.clear();
    adjacency_.clear();
    protocol::decode_field(r, links_);
    if (!r.ok()) {
        links_.clear();
        return false;
    }
    for (const CoupleLink& l : links_) {
        adjacency_[l.source].insert(l.dest);
        adjacency_[l.dest].insert(l.source);
    }
    return true;
}

void CoupleGraph::fingerprint(ByteWriter& w) const {
    std::vector<CoupleLink> undirected = links_;
    for (CoupleLink& l : undirected) {
        if (l.dest < l.source) std::swap(l.source, l.dest);
    }
    std::sort(undirected.begin(), undirected.end());
    protocol::encode_field(w, undirected);
}

}  // namespace cosoft::server
