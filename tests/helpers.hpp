// Shared test fixture: tests drive a LocalSession (server + N clients over a
// deterministic SimNetwork) with virtual time via run().
#pragma once

#include <functional>
#include <utility>

#include "cosoft/apps/local_session.hpp"

namespace cosoft::testing {

using Session = apps::LocalSession;

/// Runs a callback when the scope unwinds, including through a failing
/// ASSERT_*. Tests that wedge a worker or spawn a thread release it here, so
/// a failure cannot leave a destructor joining a thread forever.
class ScopeExit {
  public:
    explicit ScopeExit(std::function<void()> fn) : fn_(std::move(fn)) {}
    ~ScopeExit() { fn_(); }
    ScopeExit(const ScopeExit&) = delete;
    ScopeExit& operator=(const ScopeExit&) = delete;

  private:
    std::function<void()> fn_;
};

}  // namespace cosoft::testing
