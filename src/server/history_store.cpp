#include "cosoft/server/history_store.hpp"

#include <algorithm>
#include <utility>

#include "cosoft/protocol/field_codec.hpp"

namespace cosoft::server {

void HistoryStore::push_bounded(std::vector<toolkit::UiState>& stack, toolkit::UiState state) {
    if (stack.size() >= max_depth_) stack.erase(stack.begin());  // drop the oldest
    stack.push_back(std::move(state));
}

void HistoryStore::push_overwritten(const ObjectRef& object, toolkit::UiState state) {
    Stacks& s = stacks_[object];
    push_bounded(s.undo, std::move(state));
    s.redo.clear();  // a new edit invalidates the redo branch
}

void HistoryStore::push_redo(const ObjectRef& object, toolkit::UiState state) {
    push_bounded(stacks_[object].redo, std::move(state));
}

void HistoryStore::push_undo_preserving_redo(const ObjectRef& object, toolkit::UiState state) {
    push_bounded(stacks_[object].undo, std::move(state));
}

std::optional<toolkit::UiState> HistoryStore::pop_undo(const ObjectRef& object) {
    const auto it = stacks_.find(object);
    if (it == stacks_.end() || it->second.undo.empty()) return std::nullopt;
    toolkit::UiState out = std::move(it->second.undo.back());
    it->second.undo.pop_back();
    return out;
}

std::optional<toolkit::UiState> HistoryStore::pop_redo(const ObjectRef& object) {
    const auto it = stacks_.find(object);
    if (it == stacks_.end() || it->second.redo.empty()) return std::nullopt;
    toolkit::UiState out = std::move(it->second.redo.back());
    it->second.redo.pop_back();
    return out;
}

std::size_t HistoryStore::undo_depth(const ObjectRef& object) const noexcept {
    const auto it = stacks_.find(object);
    return it == stacks_.end() ? 0 : it->second.undo.size();
}

std::size_t HistoryStore::redo_depth(const ObjectRef& object) const noexcept {
    const auto it = stacks_.find(object);
    return it == stacks_.end() ? 0 : it->second.redo.size();
}

void HistoryStore::forget_instance(InstanceId instance) {
    std::erase_if(stacks_, [&](const auto& kv) { return kv.first.instance == instance; });
}

void HistoryStore::forget_object(const ObjectRef& object) { stacks_.erase(object); }

std::vector<std::string> HistoryStore::check_invariants() const {
    std::vector<std::string> out;
    for (const auto& [object, stacks] : stacks_) {
        if (!object.valid()) {
            out.push_back("history store: entry keyed by invalid object ref " + to_string(object));
        }
        if (stacks.undo.size() > max_depth_ || stacks.redo.size() > max_depth_) {
            out.push_back("history store: " + to_string(object) + " exceeds max depth " +
                          std::to_string(max_depth_) + " (undo " + std::to_string(stacks.undo.size()) +
                          ", redo " + std::to_string(stacks.redo.size()) + ")");
        }
    }
    return out;
}

void HistoryStore::snapshot(ByteWriter& w) const { protocol::encode_fields(w, max_depth_, stacks_); }

bool HistoryStore::restore(ByteReader& r) {
    stacks_.clear();
    protocol::decode_fields(r, max_depth_, stacks_);
    if (!r.ok()) {
        stacks_.clear();
        return false;
    }
    return true;
}

}  // namespace cosoft::server
