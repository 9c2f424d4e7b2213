// The server's lock table (§2.1): "guarantees that actions occur serially
// within each group of coupled objects" — the floor-control half of the
// multiple-execution algorithm (§3.2).
//
// Lock acquisition over a set is atomic here: either every object in CO(o)
// is locked for the action, or none is. This realizes the same outcome as
// the paper's lock-then-undo-on-failure loop without exposing the transient
// partially-locked state.
#pragma once

#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/common/error.hpp"
#include "cosoft/common/ids.hpp"

namespace cosoft::server {

class LockTable {
  public:
    /// Action identifier unique across clients: (instance, client action id).
    struct ActionKey {
        InstanceId instance = kInvalidInstance;
        std::uint64_t action = 0;
        static constexpr auto fields() { return std::tuple{&ActionKey::instance, &ActionKey::action}; }
        friend auto operator<=>(const ActionKey&, const ActionKey&) = default;
    };
    struct ActionKeyHash {
        std::size_t operator()(const ActionKey& k) const noexcept {
            return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(k.instance) << 40) ^ k.action);
        }
    };

    /// Attempts to lock every object for the action. On conflict nothing is
    /// locked and the blocking object is reported via `conflict`.
    Status try_lock_all(const ActionKey& key, const std::vector<ObjectRef>& objects, ObjectRef* conflict = nullptr);

    /// Releases everything the action holds; returns the released objects.
    std::vector<ObjectRef> unlock_action(const ActionKey& key);

    /// Releases every lock held by any action of `instance` (termination).
    std::vector<ObjectRef> unlock_instance(InstanceId instance);

    /// Drops locked objects *owned by* `instance` from every action's held
    /// set (the objects cease to exist when their instance terminates, even
    /// if another instance's action holds the lock). Actions left holding
    /// nothing are removed. Returns the dropped objects.
    std::vector<ObjectRef> release_owned_by(InstanceId instance);

    [[nodiscard]] bool is_locked(const ObjectRef& ref) const noexcept { return holders_.contains(ref); }
    [[nodiscard]] std::optional<ActionKey> holder(const ObjectRef& ref) const;
    [[nodiscard]] std::size_t locked_count() const noexcept { return holders_.size(); }

    /// Objects currently held by an action (empty if none).
    [[nodiscard]] std::vector<ObjectRef> objects_of(const ActionKey& key) const;

    /// Structural invariants, checked in COSOFT_CHECKED builds and by tests:
    /// the holder index and the per-action object lists must describe the
    /// same set of locks, with no duplicates and no empty action entries.
    /// Returns human-readable violation descriptions (empty = consistent).
    [[nodiscard]] std::vector<std::string> check_invariants() const;

    /// Journal snapshot: each action's objects in locking order, actions
    /// sorted by key. The holder index is derived, so restore() rebuilds it.
    void snapshot(ByteWriter& w) const;
    /// Replaces the table with a snapshot() image. False on malformed input
    /// (the table is left empty).
    [[nodiscard]] bool restore(ByteReader& r);
    /// Model-checker state hash: every (object, holder) pair sorted by
    /// object, independent of locking order.
    void fingerprint(ByteWriter& w) const;

  private:
    std::unordered_map<ObjectRef, ActionKey> holders_;
    std::unordered_map<ActionKey, std::vector<ObjectRef>, ActionKeyHash> actions_;
};

}  // namespace cosoft::server
