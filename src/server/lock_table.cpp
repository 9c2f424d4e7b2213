#include "cosoft/server/lock_table.hpp"

#include <algorithm>
#include <utility>

#include "cosoft/protocol/field_codec.hpp"

namespace cosoft::server {

Status LockTable::try_lock_all(const ActionKey& key, const std::vector<ObjectRef>& objects, ObjectRef* conflict) {
    for (const ObjectRef& o : objects) {
        const auto it = holders_.find(o);
        if (it != holders_.end() && !(it->second == key)) {
            if (conflict != nullptr) *conflict = o;
            return Status{ErrorCode::kLockConflict, "already locked: " + to_string(o)};
        }
    }
    std::vector<ObjectRef>* held = nullptr;  // created lazily: no empty action entries
    for (const ObjectRef& o : objects) {
        if (holders_.emplace(o, key).second) {
            if (held == nullptr) held = &actions_[key];
            held->push_back(o);
        }
    }
    return Status::ok();
}

std::vector<ObjectRef> LockTable::unlock_action(const ActionKey& key) {
    const auto it = actions_.find(key);
    if (it == actions_.end()) return {};
    std::vector<ObjectRef> released = std::move(it->second);
    actions_.erase(it);
    for (const ObjectRef& o : released) holders_.erase(o);
    return released;
}

std::vector<ObjectRef> LockTable::unlock_instance(InstanceId instance) {
    std::vector<ActionKey> doomed;
    for (const auto& [key, _] : actions_) {
        if (key.instance == instance) doomed.push_back(key);
    }
    std::vector<ObjectRef> released;
    for (const ActionKey& key : doomed) {
        auto objs = unlock_action(key);
        released.insert(released.end(), objs.begin(), objs.end());
    }
    return released;
}

std::vector<ObjectRef> LockTable::release_owned_by(InstanceId instance) {
    std::vector<ObjectRef> released;
    for (auto it = holders_.begin(); it != holders_.end();) {
        if (it->first.instance != instance) {
            ++it;
            continue;
        }
        const auto act = actions_.find(it->second);
        if (act != actions_.end()) {
            std::erase(act->second, it->first);
            if (act->second.empty()) actions_.erase(act);
        }
        released.push_back(it->first);
        it = holders_.erase(it);
    }
    return released;
}

std::optional<LockTable::ActionKey> LockTable::holder(const ObjectRef& ref) const {
    const auto it = holders_.find(ref);
    if (it == holders_.end()) return std::nullopt;
    return it->second;
}

std::vector<ObjectRef> LockTable::objects_of(const ActionKey& key) const {
    const auto it = actions_.find(key);
    return it == actions_.end() ? std::vector<ObjectRef>{} : it->second;
}

std::vector<std::string> LockTable::check_invariants() const {
    std::vector<std::string> out;
    std::size_t listed = 0;
    for (const auto& [key, objs] : actions_) {
        if (objs.empty()) {
            out.push_back("lock table: action (" + std::to_string(key.instance) + "," +
                          std::to_string(key.action) + ") holds no objects");
        }
        listed += objs.size();
        for (const ObjectRef& o : objs) {
            if (!o.valid()) {
                out.push_back("lock table: invalid object ref in action list: " + to_string(o));
            }
            const auto h = holders_.find(o);
            if (h == holders_.end()) {
                out.push_back("lock table: " + to_string(o) + " listed for an action but has no holder entry");
            } else if (!(h->second == key)) {
                out.push_back("lock table: " + to_string(o) + " listed for one action but held by another");
            }
        }
    }
    // Equal sizes + every listed object resolving to its own action implies
    // the two indexes are exact mirrors (duplicates would inflate `listed`).
    if (listed != holders_.size()) {
        out.push_back("lock table: " + std::to_string(holders_.size()) + " holder entries vs " +
                      std::to_string(listed) + " objects listed across actions");
    }
    return out;
}

void LockTable::snapshot(ByteWriter& w) const { protocol::encode_field(w, actions_); }

bool LockTable::restore(ByteReader& r) {
    holders_.clear();
    actions_.clear();
    protocol::decode_field(r, actions_);
    if (!r.ok()) {
        actions_.clear();
        return false;
    }
    for (const auto& [key, objects] : actions_) {
        for (const ObjectRef& o : objects) holders_[o] = key;
    }
    return true;
}

void LockTable::fingerprint(ByteWriter& w) const { protocol::encode_field(w, holders_); }

}  // namespace cosoft::server
