// The machine-checked threading model (thread_annotations.hpp,
// lock_order.hpp, strand_check.hpp):
//   - the lock-order detector reports a deliberate two-mutex inversion with
//     both witness stacks, stays armed afterwards, and flags same-class
//     pairs and cycles assembled across threads;
//   - clean nesting is silent and the per-thread held bookkeeping balances;
//   - strand confinement binds at first touch, follows a strand across
//     workers, and reports any touch from another strand or from outside
//     any strand;
//   - a manager-owned CoSession's entry points actually enforce it;
//   - regression coverage for the guarded-state escapes the migration fixed
//     (TcpChannel send-queue reconfiguration racing send/close) and a
//     battery-style SessionManager workload that must stay cycle-free.
//
// Everything runtime-checked skips outside COSOFT_THREAD_CHECKED builds
// (the checked/asan/tsan presets) — release builds compile the checkers out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cosoft/apps/local_session.hpp"
#include "cosoft/client/co_app.hpp"
#include "cosoft/common/lock_order.hpp"
#include "cosoft/common/strand_check.hpp"
#include "cosoft/common/thread_annotations.hpp"
#include "cosoft/net/reactor.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/co_session.hpp"
#include "cosoft/server/session_manager.hpp"

// The inversion tests below construct real lock-order cycles on purpose —
// that is the fixture the detector under test must catch. ThreadSanitizer's
// own deadlock detector (rightly) flags the same cycles and would fail the
// binary with exit code 66, so this one binary opts out of tsan's deadlock
// pass; tsan still checks it for data races, and every other suite in the
// battery keeps the deadlock pass armed.
#if !defined(COSOFT_UNDER_TSAN) && defined(__SANITIZE_THREAD__)
#define COSOFT_UNDER_TSAN 1
#endif
#if !defined(COSOFT_UNDER_TSAN) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COSOFT_UNDER_TSAN 1
#endif
#endif
#if defined(COSOFT_UNDER_TSAN)
extern "C" const char* __tsan_default_options() { return "detect_deadlocks=0"; }
#endif

namespace cosoft {
namespace {

using namespace std::chrono_literals;

/// Installs a capturing handler for lock-order violations for the scope of
/// one test; restores the previous handler (the default abort) on exit.
class CaptureLockOrder {
  public:
    CaptureLockOrder() {
        prev_ = lockorder::set_violation_handler(
            [this](const std::string& report) { reports_.push_back(report); });
    }
    ~CaptureLockOrder() { (void)lockorder::set_violation_handler(std::move(prev_)); }
    CaptureLockOrder(const CaptureLockOrder&) = delete;
    CaptureLockOrder& operator=(const CaptureLockOrder&) = delete;

    [[nodiscard]] const std::vector<std::string>& reports() const { return reports_; }

  private:
    lockorder::ViolationHandler prev_;
    std::vector<std::string> reports_;
};

/// Same, for strand-confinement violations.
class CaptureStrand {
  public:
    CaptureStrand() {
        prev_ = strand::set_violation_handler(
            [this](const std::string& report) { reports_.push_back(report); });
    }
    ~CaptureStrand() { (void)strand::set_violation_handler(std::move(prev_)); }
    CaptureStrand(const CaptureStrand&) = delete;
    CaptureStrand& operator=(const CaptureStrand&) = delete;

    [[nodiscard]] const std::vector<std::string>& reports() const { return reports_; }

  private:
    strand::ViolationHandler prev_;
    std::vector<std::string> reports_;
};

bool contains(const std::string& haystack, const std::string& needle) {
    return haystack.find(needle) != std::string::npos;
}

/// Counts occurrences of `needle` in `haystack` (witness-stack blocks).
std::size_t count_of(const std::string& haystack, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

// --- Lock-order detector -----------------------------------------------------

TEST(LockOrder, CleanNestingIsSilentAndBookkeepingBalances) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureLockOrder capture;
    co::Mutex outer{"test.clean.outer"};
    co::Mutex inner{"test.clean.inner"};

    EXPECT_EQ(lockorder::held_by_this_thread(), 0u);
    for (int i = 0; i < 100; ++i) {
        const co::MutexLock lo{outer};
        EXPECT_EQ(lockorder::held_by_this_thread(), 1u);
        const co::MutexLock li{inner};
        EXPECT_EQ(lockorder::held_by_this_thread(), 2u);
    }
    EXPECT_EQ(lockorder::held_by_this_thread(), 0u);
    EXPECT_TRUE(capture.reports().empty()) << capture.reports().front();
    // The consistent nesting left exactly one recorded edge, not one hundred.
    EXPECT_GE(lockorder::node_count(), 2u);
}

TEST(LockOrder, DetectsDeliberateInversionWithBothWitnessStacks) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureLockOrder capture;
    co::Mutex a{"test.invert.A"};
    co::Mutex b{"test.invert.B"};

    {
        // Establish A -> B.
        const co::MutexLock la{a};
        const co::MutexLock lb{b};
    }
    ASSERT_TRUE(capture.reports().empty()) << capture.reports().front();
    {
        // Invert: acquiring A while holding B must fire before blocking.
        const co::MutexLock lb{b};
        const co::MutexLock la{a};
        ASSERT_EQ(capture.reports().size(), 1u);
    }
    const std::string& report = capture.reports().front();
    EXPECT_TRUE(contains(report, "lock-order cycle")) << report;
    EXPECT_TRUE(contains(report, "test.invert.A")) << report;
    EXPECT_TRUE(contains(report, "test.invert.B")) << report;
    // Both witness stacks: the offending acquisition and the established edge.
    EXPECT_TRUE(contains(report, "acquisition stack")) << report;
    EXPECT_TRUE(contains(report, "first witnessed at")) << report;
    EXPECT_GE(count_of(report, "    #0 "), 2u) << report;

    // The violating edge was not inserted: the detector stays armed, so the
    // same inversion fires again instead of being silently grandfathered in.
    {
        const co::MutexLock lb{b};
        const co::MutexLock la{a};
    }
    EXPECT_EQ(capture.reports().size(), 2u);
}

TEST(LockOrder, SameClassPairIsReported) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureLockOrder capture;
    // Two instances of one lock class: with no instance order, two threads
    // taking the pair in opposite order deadlock — the detector treats the
    // pair as a self-edge.
    co::Mutex first{"test.same.L"};
    co::Mutex second{"test.same.L"};
    {
        const co::MutexLock l1{first};
        const co::MutexLock l2{second};
    }
    ASSERT_EQ(capture.reports().size(), 1u);
    EXPECT_TRUE(contains(capture.reports().front(), "two locks of the same class"))
        << capture.reports().front();
    EXPECT_TRUE(contains(capture.reports().front(), "test.same.L")) << capture.reports().front();
}

TEST(LockOrder, CycleAssembledAcrossThreadsIsReported) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureLockOrder capture;
    co::Mutex a{"test.cycle3.A"};
    co::Mutex b{"test.cycle3.B"};
    co::Mutex c{"test.cycle3.C"};

    // Each edge individually is legal on its own thread; the graph is global,
    // so the third thread's C -> A closes the cycle A -> B -> C -> A.
    std::thread([&] {
        const co::MutexLock la{a};
        const co::MutexLock lb{b};
    }).join();
    std::thread([&] {
        const co::MutexLock lb{b};
        const co::MutexLock lc{c};
    }).join();
    ASSERT_TRUE(capture.reports().empty()) << capture.reports().front();
    std::thread([&] {
        const co::MutexLock lc{c};
        const co::MutexLock la{a};
    }).join();

    ASSERT_EQ(capture.reports().size(), 1u);
    const std::string& report = capture.reports().front();
    EXPECT_TRUE(contains(report, "test.cycle3.A")) << report;
    EXPECT_TRUE(contains(report, "test.cycle3.B")) << report;
    EXPECT_TRUE(contains(report, "test.cycle3.C")) << report;
    // The established path A -> B -> C contributes two witnessed edges.
    EXPECT_EQ(count_of(report, "established edge"), 2u) << report;
}

TEST(LockOrder, UncheckedBuildsCompileTheDetectorOut) {
    if (thread_checked_build()) GTEST_SKIP() << "this is the checked flavor";
    // The annotated types still work as plain mutexes; the graph stays empty.
    co::Mutex a{"test.release.A"};
    co::Mutex b{"test.release.B"};
    {
        const co::MutexLock lb{b};
        const co::MutexLock la{a};  // an inversion nobody watches
    }
    EXPECT_EQ(lockorder::node_count(), 0u);
    EXPECT_EQ(lockorder::edge_count(), 0u);
    EXPECT_EQ(lockorder::held_by_this_thread(), 0u);
}

// --- Strand confinement ------------------------------------------------------

TEST(StrandConfinement, CrossStrandTouchIsReported) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureStrand capture;
    StrandChecker checker{"test.strand.obj"};
    int strand_a = 0;
    int strand_b = 0;
    {
        const StrandScope scope{&strand_a};
        checker.assert_on_strand();  // binds to strand A
        checker.assert_on_strand();  // same strand: silent
    }
    EXPECT_TRUE(capture.reports().empty());
    {
        const StrandScope scope{&strand_b};
        checker.assert_on_strand();
    }
    ASSERT_EQ(capture.reports().size(), 1u);
    EXPECT_TRUE(contains(capture.reports().front(), "touched from a different strand"))
        << capture.reports().front();
    EXPECT_TRUE(contains(capture.reports().front(), "test.strand.obj"))
        << capture.reports().front();
}

TEST(StrandConfinement, StrandMigratesAcrossWorkerThreads) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureStrand capture;
    StrandChecker checker{"test.strand.migrate"};
    int the_strand = 0;
    {
        const StrandScope scope{&the_strand};
        checker.assert_on_strand();
    }
    // The same strand running on a different worker thread is the normal
    // steady state under SessionManager — never a violation.
    std::thread([&] {
        const StrandScope scope{&the_strand};
        checker.assert_on_strand();
    }).join();
    EXPECT_TRUE(capture.reports().empty()) << capture.reports().front();
}

TEST(StrandConfinement, AccessOutsideTheOwningStrandIsReported) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureStrand capture;
    StrandChecker checker{"test.strand.outside"};
    int the_strand = 0;
    {
        const StrandScope scope{&the_strand};
        checker.assert_on_strand();  // binds to the strand
    }
    EXPECT_TRUE(capture.reports().empty());
    // The owning thread, but outside the strand: there is no thread fallback.
    checker.assert_on_strand();
    // A bare touch from another thread is reported the same way.
    std::thread([&] { checker.assert_on_strand(); }).join();
    ASSERT_EQ(capture.reports().size(), 2u);
    for (const std::string& report : capture.reports()) {
        EXPECT_TRUE(contains(report, "touched outside any strand")) << report;
    }
}

TEST(StrandConfinement, ThreadOnlyModeIgnoresStrandsButKeepsThreadConfinement) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureStrand capture;
    // The SimNetwork shape: many strands legally share the object on its one
    // owning thread (inline dispatch); only a foreign thread is a bug.
    StrandChecker checker{"test.strand.threadonly"};
    checker.set_thread_only(true);
    int strand_a = 0;
    int strand_b = 0;
    {
        const StrandScope scope{&strand_a};
        checker.assert_on_strand();
    }
    {
        const StrandScope scope{&strand_b};
        checker.assert_on_strand();  // different strand, same thread: fine
    }
    checker.assert_on_strand();  // no strand at all: fine
    EXPECT_TRUE(capture.reports().empty()) << capture.reports().front();
    std::thread([&] { checker.assert_on_strand(); }).join();
    ASSERT_EQ(capture.reports().size(), 1u);
    EXPECT_TRUE(contains(capture.reports().front(), "touched from a different thread"))
        << capture.reports().front();
}

TEST(StrandConfinement, DetachRebindsAtTheNextTouch) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureStrand capture;
    StrandChecker checker{"test.strand.detach"};
    int strand_a = 0;
    int strand_b = 0;
    {
        const StrandScope scope{&strand_a};
        checker.assert_on_strand();
    }
    checker.detach();  // ownership hand-off: forget the binding
    {
        const StrandScope scope{&strand_b};
        checker.assert_on_strand();  // rebinds to B instead of reporting
    }
    EXPECT_TRUE(capture.reports().empty()) << capture.reports().front();
}

TEST(StrandConfinement, CoSessionEntryPointsEnforceConfinement) {
    if (!thread_checked_build()) GTEST_SKIP() << "checkers compiled out in this build";
    CaptureStrand capture;
    // A manager-owned session: the app's Register binds the session's
    // checker to the session strand, where every dispatch since has run.
    apps::LocalSession local;
    local.set_conformance(false);  // the stray replies below are never delivered
    const InstanceId id = local.add_app("editor", "ann", 1).instance();
    EXPECT_TRUE(capture.reports().empty());

    const protocol::Frame query = protocol::encode_message(
        protocol::Message{protocol::RegistryQuery{1}});
    // A bare-thread touch — on the very thread the inline manager runs — is
    // reported...
    local.server().deliver(id, query);
    ASSERT_EQ(capture.reports().size(), 1u);
    EXPECT_TRUE(contains(capture.reports().back(), "touched outside any strand"))
        << capture.reports().back();
    // ...and so is a touch from a foreign strand.
    int foreign_strand = 0;
    {
        const StrandScope scope{&foreign_strand};
        local.server().deliver(id, query);
    }
    ASSERT_EQ(capture.reports().size(), 2u);
    EXPECT_TRUE(contains(capture.reports().back(), "touched from a different strand"))
        << capture.reports().back();
    for (const std::string& report : capture.reports()) {
        EXPECT_TRUE(contains(report, "server.CoSession")) << report;
    }
}

// --- Regression: the guarded-state escapes the migration fixed ---------------

TEST(LockOrderRegression, TcpSendQueueReconfigurationRacesSendAndClose) {
    // configure_send_queue() used to write SendQueueOptions unsynchronized
    // against the reactor reading high_watermark (service_write) and close()
    // reading drain_timeout_ms — now all out_mu_-guarded. This hammers the
    // reconfigure path against live senders; tsan (which arms the checkers)
    // proves the fix, and in any flavor the frames must arrive intact.
    auto listener = net::TcpListener::create(0);
    ASSERT_TRUE(listener.is_ok()) << listener.error().message;
    auto client = net::tcp_connect("127.0.0.1", listener.value()->port());
    ASSERT_TRUE(client.is_ok()) << client.error().message;
    auto served = listener.value()->accept(5000);
    ASSERT_TRUE(served.is_ok()) << served.error().message;

    std::atomic<int> received{0};
    served.value()->on_receive([&](const protocol::Frame&) { received.fetch_add(1); });
    client.value()->on_backpressure([](bool, std::size_t) {});

    constexpr int kFrames = 400;
    std::thread sender([&] {
        for (int i = 0; i < kFrames; ++i) {
            if (!client.value()->send(std::vector<std::uint8_t>(1 + (i % 64), 0x5a)).is_ok()) break;
        }
    });
    std::thread reconfigurer([&] {
        net::SendQueueOptions opts;
        for (int i = 0; i < 200; ++i) {
            opts.high_watermark = 1024U + static_cast<std::size_t>(i) * 512U;
            opts.drain_timeout_ms = 1000 + i;
            client.value()->configure_send_queue(opts);
            std::this_thread::sleep_for(50us);
        }
    });
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (received.load() < kFrames && std::chrono::steady_clock::now() < deadline) {
        served.value()->poll();
        std::this_thread::sleep_for(200us);
    }
    sender.join();
    reconfigurer.join();
    EXPECT_EQ(received.load(), kFrames);
    client.value()->close();  // reads drain_timeout_ms under out_mu_
}

// --- Battery-style workload: the production lock order must stay a DAG -------

TEST(LockOrderRegression, SessionManagerWorkloadIsCycleFree) {
    // Drives the full production stack — SessionManager workers, a private
    // reactor, TcpChannels, journaled sessions, the obs registry — while a
    // reader hammers the two operator read paths, status() and
    // journal_tails() (the depart() <-> status-walk nesting was the prime
    // inversion suspect; journal_tails() reads the journal files while the
    // strands append to them). Any cycle in the discipline fires the detector; the capturing
    // handler turns that into a test failure with the full report instead of
    // an abort.
    CaptureLockOrder capture;
    char dir_template[] = "/tmp/cosoft_lockorder_XXXXXX";
    const char* journal_dir = ::mkdtemp(dir_template);
    ASSERT_NE(journal_dir, nullptr);
    {
        auto reactor = net::Reactor::create();
        server::SessionManagerOptions options;
        options.workers = 2;
        options.reactor = reactor;
        options.journal_dir = journal_dir;
        options.journal_fsync = server::FsyncPolicy::kNever;
        server::SessionManager mgr(options);

        net::ListenOptions listen_options;
        listen_options.reactor = reactor;
        auto listener = net::TcpListener::create(0, listen_options);
        ASSERT_TRUE(listener.is_ok());

        std::vector<std::shared_ptr<net::TcpChannel>> pump;
        auto connect = [&](client::CoApp& app, const std::string& session) {
            auto c = net::tcp_connect("127.0.0.1", listener.value()->port());
            ASSERT_TRUE(c.is_ok());
            auto s = listener.value()->accept(2000);
            ASSERT_TRUE(s.is_ok());
            mgr.attach(s.value());
            app.connect(c.value(), session);
            pump.push_back(c.value());
        };

        client::CoApp alice{"editor", "alice", 1};
        client::CoApp bob{"editor", "bob", 2};
        connect(alice, "red");
        connect(bob, "red");
        const auto deadline = std::chrono::steady_clock::now() + 10s;
        while (!(alice.online() && bob.online()) &&
               std::chrono::steady_clock::now() < deadline) {
            for (auto& ch : pump) ch->poll();
            std::this_thread::sleep_for(200us);
        }
        ASSERT_TRUE(alice.online() && bob.online());

        // Status reads walk the manager's tables while traffic flows.
        for (int i = 0; i < 50; ++i) {
            (void)mgr.status();
            (void)mgr.journal_tails();
            for (auto& ch : pump) ch->poll();
            std::this_thread::sleep_for(100us);
        }
        mgr.quiesce();
        EXPECT_TRUE(mgr.check_invariants().empty());
        EXPECT_FALSE(mgr.journal_tails().empty()) << "session red was not journaled";
        // Departures + status reads: the historical inversion pairing.
        pump.front()->close();
        for (int i = 0; i < 50; ++i) {
            (void)mgr.status();
            (void)mgr.journal_tails();
            std::this_thread::sleep_for(100us);
        }
        mgr.quiesce();
    }
    std::error_code ec;
    std::filesystem::remove_all(journal_dir, ec);
    EXPECT_TRUE(capture.reports().empty()) << capture.reports().front();
    if (thread_checked_build()) {
        // The detector was live: the workload recorded real edges.
        EXPECT_GT(lockorder::edge_count(), 0u);
    }
}

}  // namespace
}  // namespace cosoft
