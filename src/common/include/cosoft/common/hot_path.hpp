// Machine-checked hot-path discipline, part 1: annotations and the runtime
// allocation/blocking accountant.
//
// The broadcast/dispatch spine (CoSession::broadcast / deliver,
// SessionManager::run_strand, protocol::encode_message, TcpChannel::send /
// service, Reactor::loop) promises to stay cheap: no unbudgeted heap
// allocation, no blocking waits. Two mechanisms make that promise
// machine-checked instead of aspirational:
//
//  - *Static side.* `CO_HOT_PATH` marks a function as a hot-path root (on
//    clang it becomes `[[clang::annotate("cosoft::hot")]]`; on gcc it is a
//    searchable no-op). `scripts/hotpath_analyze` walks the call graph from
//    every root and reports each reachable allocation, throw, and blocking
//    syscall with a call-chain witness. `CO_COLD_PATH` prunes deliberate
//    slow paths (teardown, failure reporting) out of the walk.
//
//  - *Runtime side.* Hot-path-checked builds (-DCOSOFT_HOTPATH_CHECKS=ON,
//    implied by COSOFT_CHECKED) interpose global operator new/delete
//    (hot_path.cpp, same TU as this API so the archive member is pulled in
//    exactly when hot-path accounting is referenced). `CO_HOT_SCOPE("name")`
//    opens a per-thread HotScope at the top of each annotated function;
//    while a thread is inside a scope and accounting is armed, every
//    allocation and every co::MutexLock cv-wait is counted. A scope with a
//    registered budget CO_CHECK-fails on destruction if its allocation
//    count exceeded the budget.
//
// Budgets come from hotpath_budget.json at the repo root (the *ratchet*:
// ctest asserts measured allocs <= budget, so the number can only go down).
// Process-wide totals are exported as cosoft_hotpath_allocs_total /
// _bytes_total / _blocking_waits_total via obs::export_hotpath_metrics().
//
// Accounting is disarmed by default even in checked builds: a disarmed
// interposer costs one thread-local depth check per allocation, and scopes
// cost two TLS reads. Benches and tests arm() it around measured regions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#if defined(__clang__)
/// Marks a hot-path root for the static analyzer. Place on the out-of-line
/// definition (leading position) so scripts/hotpath_analyze can recover the
/// qualified name from the source line on any compiler.
#define CO_HOT_PATH [[clang::annotate("cosoft::hot")]]
/// Marks a deliberate slow path the hot-path walk must not descend into.
#define CO_COLD_PATH [[clang::annotate("cosoft::cold")]]
#else
#define CO_HOT_PATH      // no-op on gcc; the analyzer greps the source text
#define CO_COLD_PATH     // no-op on gcc; the analyzer greps the source text
#endif

namespace cosoft::hot {

/// Monotonic process-wide counters (only grow while accounting is armed).
struct Totals {
    std::uint64_t allocs = 0;          ///< in-scope operator new / new[] calls
    std::uint64_t bytes = 0;           ///< bytes requested by those calls
    std::uint64_t blocking_waits = 0;  ///< in-scope co::MutexLock cv waits
};

/// Arms / disarms accounting process-wide. Disarmed, the interposer and the
/// scopes are passive (counters frozen, budgets not enforced).
void arm(bool on) noexcept;
[[nodiscard]] bool armed() noexcept;

/// When on (and armed), *every* allocation in the process is counted into
/// the totals, scope or no scope. Benches measuring multi-threaded servers
/// use this: worker/reactor threads allocate outside the bench thread's
/// scope, but the process-wide delta still catches them.
void count_all(bool on) noexcept;

[[nodiscard]] Totals totals() noexcept;
/// Scope-budget violations observed while enforcement was off (tests).
[[nodiscard]] std::uint64_t violations() noexcept;
void reset() noexcept;  ///< zeroes totals and violations (test/bench setup)

/// Budget table: scope name -> max allocations per scope entry/exit pair.
/// Scopes with no entry are unbudgeted (counted, never enforced).
inline constexpr std::uint64_t kUnbudgeted = ~std::uint64_t{0};
void set_budget(const char* scope_name, std::uint64_t max_allocs) noexcept;
[[nodiscard]] std::uint64_t budget(const char* scope_name) noexcept;
void clear_budgets() noexcept;

/// When false, an exceeded budget increments violations() instead of
/// CO_CHECK-failing — how tests observe enforcement without dying.
void set_enforce(bool abort_on_exceed) noexcept;

/// Loads the "operations" budgets out of hotpath_budget.json (the checked-in
/// ratchet file) into a name -> budget map. Understands exactly the schema
/// that file uses; malformed input yields an empty map.
[[nodiscard]] std::unordered_map<std::string, std::uint64_t> load_budget_file(
    const std::string& path);

// ---- interposer/hook surface (called by operator new and co::MutexLock) --
[[nodiscard]] bool in_scope() noexcept;  ///< current thread inside a HotScope?
void note_alloc(std::size_t bytes) noexcept;
void note_blocking_wait() noexcept;

/// RAII hot-section accountant. While the innermost scope on a thread is
/// alive (and accounting is armed), allocations and blocking waits on that
/// thread are attributed to *every* open scope on it: a nested scope's costs
/// are part of its parent's costs, matching how budgets compose (a caller's
/// budget covers its callees). Destruction of a scope whose allocation count
/// exceeds its budget (set_budget / hotpath_budget.json) CO_CHECK-fails.
class HotScope {
  public:
    /// Budget looked up from the registered table by name.
    explicit HotScope(const char* name) noexcept;
    /// Explicit budget (tests; kUnbudgeted = count only).
    HotScope(const char* name, std::uint64_t max_allocs) noexcept;
    ~HotScope();

    HotScope(const HotScope&) = delete;
    HotScope& operator=(const HotScope&) = delete;

    // Costs observed on this thread since the scope opened (nested scopes
    // included). Live reads — valid before destruction.
    [[nodiscard]] std::uint64_t allocs() const noexcept;
    [[nodiscard]] std::uint64_t bytes() const noexcept;
    [[nodiscard]] std::uint64_t blocking_waits() const noexcept;

  private:
    const char* name_;
    std::uint64_t budget_;
    std::uint64_t start_allocs_;
    std::uint64_t start_bytes_;
    std::uint64_t start_waits_;
    bool active_;  ///< armed() at construction; dtor only accounts if set
};

}  // namespace cosoft::hot

// CO_HOT_SCOPE("name"): opens a HotScope for the rest of the enclosing block
// in hot-path-checked builds; expands to nothing otherwise, so annotated
// functions pay zero in release builds.
#if defined(COSOFT_HOTPATH_CHECKED)
#define CO_HOT_SCOPE_CAT2(a, b) a##b
#define CO_HOT_SCOPE_CAT(a, b) CO_HOT_SCOPE_CAT2(a, b)
#define CO_HOT_SCOPE(name) \
    const ::cosoft::hot::HotScope CO_HOT_SCOPE_CAT(co_hot_scope_, __LINE__) { name }
#else
#define CO_HOT_SCOPE(name) ((void)0)
#endif

namespace co = cosoft;
