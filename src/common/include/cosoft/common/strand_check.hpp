// Machine-checked threading model, part 3: strand confinement.
//
// The dispatch model promises "serial per session": all of a session's
// traffic runs on its strand, at most one worker at a time, so CoSession
// needs no locks. That promise lives in SessionManager's scheduling logic —
// nothing stops a stray thread from calling into a CoSession directly and
// corrupting every coupled user at once. This header turns the promise into
// an enforced invariant in COSOFT_THREAD_CHECKED builds (the `checked`,
// `asan`, and `tsan` presets):
//
//  - SessionManager::run_strand() enters a StrandScope, publishing the
//    strand's identity in a thread-local while the batch runs.
//  - Strand-confined objects own a StrandChecker and call
//    assert_on_strand() at the top of every mutating entry point. The
//    checker binds to the owning context at first touch and fails any
//    access from a foreign one through cosoft::detail::check_failed.
//
// Binding semantics:
//  - Strand confinement (the default): the checker binds to the first
//    strand that touches it. A session's strand migrates across workers,
//    so the bound *strand token* is the identity; the bound thread just
//    tracks the latest worker. A touch from a different strand, or from
//    outside any strand, is always a violation — every mutating call into
//    a CoSession arrives through the manager's run_strand or its journal
//    replay scope, in inline mode too.
//  - Thread-only mode (set_thread_only): single-threaded harnesses that
//    many strands legally share on one thread (SimNetwork, the model
//    checker's ScheduleController) ignore strand identity and confine the
//    object to its first-touch thread.
//
// CO_STRAND_CONFINED is a declaration-site marker (expands to nothing):
// it tags the members whose safety rests on the strand discipline rather
// than on a mutex, so the reader — and grep — can tell "unguarded" from
// "strand-confined".
#pragma once

#include <functional>
#include <mutex>
#include <string>

#define CO_STRAND_CONFINED  // marker: member is confined to its owning strand

namespace cosoft {

/// Opaque identity of a serial execution domain. SessionManager uses the
/// Strand object's address; any stable address works.
using StrandToken = const void*;

namespace strand {

/// The strand the calling thread is currently running for (nullptr outside
/// any StrandScope — i.e. outside worker dispatch).
StrandToken current() noexcept;

/// Handler invoked with the human-readable violation report. Installing a
/// handler (tests) replaces the default abort; passing nullptr restores it.
using ViolationHandler = std::function<void(const std::string& report)>;

/// Installs `handler` for strand-confinement violations process-wide and
/// returns the previous one. Test-only: not synchronized against in-flight
/// checks.
ViolationHandler set_violation_handler(ViolationHandler handler);

}  // namespace strand

#if defined(COSOFT_THREAD_CHECKED)

/// RAII: marks the calling thread as running on behalf of `token` for the
/// scope's lifetime (nests correctly: restores the previous token).
class StrandScope {
  public:
    explicit StrandScope(StrandToken token) noexcept;
    ~StrandScope();
    StrandScope(const StrandScope&) = delete;
    StrandScope& operator=(const StrandScope&) = delete;

  private:
    StrandToken prev_;
};

/// Owned by each strand-confined object; assert_on_strand() at the top of
/// every mutating entry point.
class StrandChecker {
  public:
    explicit StrandChecker(const char* name) noexcept : name_(name) {}

    /// Binds to the calling strand at first touch; fails (violation
    /// handler, default abort) on access from a foreign strand or from
    /// outside any strand.
    void assert_on_strand() const;

    /// Forgets the binding: the next touch re-binds. Call at ownership
    /// hand-off points (e.g. a session rebound to a new strand).
    void detach() noexcept;

    /// Thread-only mode: strand identity is ignored and the object is
    /// confined to its first-touch thread. For single-threaded embedder
    /// harnesses (SimNetwork) that many strands legally share on one
    /// thread — an inline-mode SessionManager runs every session's strand
    /// on the embedder thread, and all of them reply through the one net.
    void set_thread_only(bool thread_only) noexcept;

  private:
    const char* name_;
    mutable std::mutex mu_;  // raw std::mutex on purpose: checker internals
                             // must not appear in the lock-order graph
    mutable StrandToken strand_ = nullptr;  ///< owning strand (null: unbound)
    mutable const void* thread_ = nullptr;  ///< latest owning thread (null: unbound)
    bool thread_only_ = false;
};

#else  // !COSOFT_THREAD_CHECKED — everything compiles away

class StrandScope {
  public:
    explicit StrandScope(StrandToken) noexcept {}
    // User-provided so RAII uses don't trip -Wunused-variable in this flavor.
    ~StrandScope() {}  // NOLINT(modernize-use-equals-default)
    StrandScope(const StrandScope&) = delete;
    StrandScope& operator=(const StrandScope&) = delete;
};

class StrandChecker {
  public:
    explicit StrandChecker(const char*) noexcept {}
    void assert_on_strand() const noexcept {}
    void detach() noexcept {}
    void set_thread_only(bool) noexcept {}
};

#endif  // COSOFT_THREAD_CHECKED

}  // namespace cosoft
