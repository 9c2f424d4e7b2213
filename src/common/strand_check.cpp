#include "cosoft/common/strand_check.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "cosoft/common/check.hpp"

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace cosoft::strand {

namespace {

thread_local StrandToken tl_current_strand = nullptr;

/// Stable per-thread identity: the address of a thread_local byte. Unique
/// among live threads (an exited thread's slot may be recycled — acceptable
/// for a checked-build diagnostic, and the strand token is the primary key).
const void* this_thread_token() noexcept {
    thread_local char tl_byte = 0;
    return &tl_byte;
}

std::mutex& handler_mu() {
    static std::mutex mu;
    return mu;
}

ViolationHandler& handler_slot() {
    static ViolationHandler handler;
    return handler;
}

void append_stack(std::string& out) {
#if defined(__GLIBC__)
    void* frames[24];
    const int depth = ::backtrace(frames, 24);
    if (depth > 0) {
        char** symbols = ::backtrace_symbols(frames, depth);
        for (int i = 0; i < depth; ++i) {
            out += "    #";
            out += std::to_string(i);
            out += ' ';
            if (symbols != nullptr && symbols[i] != nullptr) {
                out += symbols[i];
            } else {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%p", frames[i]);
                out += buf;
            }
            out += '\n';
        }
        ::free(symbols);  // NOLINT(cppcoreguidelines-no-malloc) — backtrace_symbols contract
        return;
    }
#endif
    out += "    (no stack captured on this platform)\n";
}

void append_token(std::string& out, const void* token) {
    if (token == nullptr) {
        out += "(none)";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%p", token);
    out += buf;
}

void report_violation(const char* name, StrandToken bound_strand, const void* bound_thread,
                      StrandToken current_strand, const void* current_thread, const char* why) {
    std::string report = "strand-confinement violation on \"";
    report += name;
    report += "\": ";
    report += why;
    report += "\n  bound owner:   strand ";
    append_token(report, bound_strand);
    report += ", thread ";
    append_token(report, bound_thread);
    report += "\n  this access:   strand ";
    append_token(report, current_strand);
    report += ", thread ";
    append_token(report, current_thread);
    report += "\n  access stack:\n";
    append_stack(report);
    ViolationHandler handler;
    {
        std::lock_guard<std::mutex> lock{handler_mu()};
        handler = handler_slot();
    }
    if (handler) {
        handler(report);
        return;
    }
    detail::check_failed("strand-confined state touched only by its owning strand", __FILE__,
                         __LINE__, report);
}

}  // namespace

StrandToken current() noexcept { return tl_current_strand; }

ViolationHandler set_violation_handler(ViolationHandler handler) {
    std::lock_guard<std::mutex> lock{handler_mu()};
    std::swap(handler, handler_slot());
    return handler;
}

}  // namespace cosoft::strand

#if defined(COSOFT_THREAD_CHECKED)

namespace cosoft {

StrandScope::StrandScope(StrandToken token) noexcept : prev_(strand::tl_current_strand) {
    strand::tl_current_strand = token;
}

StrandScope::~StrandScope() { strand::tl_current_strand = prev_; }

void StrandChecker::assert_on_strand() const {
    const StrandToken s = strand::current();
    const void* t = strand::this_thread_token();
    std::lock_guard<std::mutex> lock{mu_};
    if (thread_only_) {
        // Strand identity is irrelevant: many strands legally share this
        // object on its one owning thread (inline dispatch harnesses).
        if (thread_ == nullptr) thread_ = t;
        if (thread_ != t) {
            strand::report_violation(name_, strand_, thread_, s, t, "touched from a different thread");
        }
        return;
    }
    if (s == nullptr) {
        strand::report_violation(name_, strand_, thread_, s, t, "touched outside any strand");
        return;
    }
    if (strand_ == nullptr) strand_ = s;  // first touch binds
    if (strand_ != s) {
        strand::report_violation(name_, strand_, thread_, s, t, "touched from a different strand");
        return;
    }
    thread_ = t;  // same strand on a (possibly) new worker: rebind
}

void StrandChecker::detach() noexcept {
    std::lock_guard<std::mutex> lock{mu_};
    strand_ = nullptr;
    thread_ = nullptr;
}

void StrandChecker::set_thread_only(bool thread_only) noexcept {
    std::lock_guard<std::mutex> lock{mu_};
    thread_only_ = thread_only;
}

}  // namespace cosoft

#endif  // COSOFT_THREAD_CHECKED
