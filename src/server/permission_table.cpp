#include "cosoft/server/permission_table.hpp"

#include <algorithm>
#include <string>

#include "cosoft/common/strings.hpp"
#include "cosoft/protocol/field_codec.hpp"

namespace cosoft::server {

void PermissionTable::set(UserId user, const ObjectRef& object, protocol::RightsMask rights, bool allow) {
    const auto it = std::find_if(rules_.begin(), rules_.end(), [&](const Rule& r) {
        return r.user == user && r.object == object;
    });
    if (it != rules_.end()) {
        it->rights = rights;
        it->allow = allow;
    } else {
        rules_.push_back({user, object, rights, allow});
    }
}

void PermissionTable::clear(UserId user, const ObjectRef& object) {
    std::erase_if(rules_, [&](const Rule& r) { return r.user == user && r.object == object; });
}

bool PermissionTable::check(UserId user, const ObjectRef& object, protocol::Right right) const noexcept {
    const auto mask = static_cast<protocol::RightsMask>(right);
    const Rule* best = nullptr;
    for (const Rule& r : rules_) {
        if ((r.rights & mask) == 0) continue;
        if (r.user != kAnyUser && r.user != user) continue;
        if (r.object.instance != object.instance) continue;
        if (!path_is_or_under(object.path, r.object.path)) continue;
        if (best == nullptr) {
            best = &r;
            continue;
        }
        // Longest path wins; among equal paths a user-specific rule beats a
        // wildcard; among fully equal specificity, denial wins (safe side).
        const std::size_t best_len = best->object.path.size();
        const std::size_t len = r.object.path.size();
        if (len > best_len) {
            best = &r;
        } else if (len == best_len) {
            const bool r_specific = r.user != kAnyUser;
            const bool best_specific = best->user != kAnyUser;
            if (r_specific && !best_specific) {
                best = &r;
            } else if (r_specific == best_specific && !r.allow) {
                best = &r;
            }
        }
    }
    return best == nullptr || best->allow;
}

void PermissionTable::forget_instance(InstanceId instance) {
    std::erase_if(rules_, [&](const Rule& r) { return r.object.instance == instance; });
}

std::vector<std::string> PermissionTable::check_invariants() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const Rule& r = rules_[i];
        if ((r.rights & ~protocol::kAllRights) != 0) {
            out.push_back("permission rule for '" + r.object.path + "' has rights outside kAllRights");
        }
        if (r.rights == 0) {
            out.push_back("permission rule for '" + r.object.path + "' has an empty rights mask");
        }
        if (r.object.instance == kInvalidInstance) {
            out.push_back("permission rule for '" + r.object.path + "' references an invalid instance");
        }
        for (std::size_t j = i + 1; j < rules_.size(); ++j) {
            if (rules_[j].user == r.user && rules_[j].object == r.object) {
                out.push_back("duplicate permission rule for user " + std::to_string(r.user) + " on '" +
                              r.object.path + "'");
            }
        }
    }
    return out;
}

std::vector<InstanceId> PermissionTable::referenced_instances() const {
    std::vector<InstanceId> out;
    out.reserve(rules_.size());
    for (const Rule& r : rules_) out.push_back(r.object.instance);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void PermissionTable::snapshot(ByteWriter& w) const { protocol::encode_field(w, rules_); }

bool PermissionTable::restore(ByteReader& r) {
    rules_.clear();
    protocol::decode_field(r, rules_);
    if (!r.ok()) {
        rules_.clear();
        return false;
    }
    return true;
}

void PermissionTable::fingerprint(ByteWriter& w) const {
    std::vector<Rule> sorted = rules_;
    std::sort(sorted.begin(), sorted.end());
    protocol::encode_field(w, sorted);
}

}  // namespace cosoft::server
