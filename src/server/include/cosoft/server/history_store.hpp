// Historical UI states (§2.1): "backup the UI states which have been
// overwritten when synchronizing by state was applied, and provide the
// possibility of undoing/redoing user's actions."
//
// Per object the store keeps a bounded undo stack and a redo stack of full
// UiState snapshots. A normal copy pushes the overwritten state onto undo
// and clears redo; server-driven undo/redo move states between the stacks.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/common/ids.hpp"
#include "cosoft/toolkit/snapshot.hpp"

namespace cosoft::server {

class HistoryStore {
  public:
    explicit HistoryStore(std::size_t max_depth = 64) : max_depth_(max_depth) {}

    /// Files the state a normal copy overwrote; invalidates redo history.
    void push_overwritten(const ObjectRef& object, toolkit::UiState state);

    /// Files the state an undo overwrote (it becomes redoable).
    void push_redo(const ObjectRef& object, toolkit::UiState state);

    /// Files the state a redo overwrote (it becomes undoable again),
    /// *without* clearing the redo stack.
    void push_undo_preserving_redo(const ObjectRef& object, toolkit::UiState state);

    [[nodiscard]] std::optional<toolkit::UiState> pop_undo(const ObjectRef& object);
    [[nodiscard]] std::optional<toolkit::UiState> pop_redo(const ObjectRef& object);

    [[nodiscard]] std::size_t undo_depth(const ObjectRef& object) const noexcept;
    [[nodiscard]] std::size_t redo_depth(const ObjectRef& object) const noexcept;

    /// Drops all history for objects of a terminated instance.
    void forget_instance(InstanceId instance);
    void forget_object(const ObjectRef& object);

    [[nodiscard]] std::size_t max_depth() const noexcept { return max_depth_; }

    /// Structural invariants, checked in COSOFT_CHECKED builds and by tests:
    /// every stack respects the depth bound and every entry is keyed by a
    /// valid object ref. Returns human-readable violations (empty = ok).
    [[nodiscard]] std::vector<std::string> check_invariants() const;

    /// Journal snapshot: max_depth, then each object's undo and redo stacks,
    /// objects sorted. Canonical already, so it is also the model checker's
    /// state hash of the store.
    void snapshot(ByteWriter& w) const;
    /// Replaces the store with a snapshot() image (including max_depth).
    /// False on malformed input (the store is left empty).
    [[nodiscard]] bool restore(ByteReader& r);

  private:
    struct Stacks {
        std::vector<toolkit::UiState> undo;
        std::vector<toolkit::UiState> redo;
        static constexpr auto fields() { return std::tuple{&Stacks::undo, &Stacks::redo}; }
    };

    void push_bounded(std::vector<toolkit::UiState>& stack, toolkit::UiState state);

    std::size_t max_depth_;
    std::unordered_map<ObjectRef, Stacks> stacks_;
};

}  // namespace cosoft::server
