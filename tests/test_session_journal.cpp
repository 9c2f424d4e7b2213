// Durable session journal (PR 10): on-disk framing and reopen, torn-write
// recovery at every byte offset, compaction, fsync/short-write fault
// injection, crash-restart convergence through a full LocalSession (ghost
// resume + brand-new late joiner), and the mid-burst late-joiner catch-up
// stream with conformance checking.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/co_session.hpp"
#include "cosoft/server/session_manager.hpp"
#include "cosoft/server/session_journal.hpp"
#include "cosoft/toolkit/widget.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

namespace fs = std::filesystem;

/// Self-cleaning scratch directory for journal files.
struct TempDir {
    std::string path;
    TempDir() {
        char tmpl[] = "/tmp/cosoft_journal_XXXXXX";
        char* made = ::mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made != nullptr ? made : "/tmp";
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
    return {s.begin(), s.end()};
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

using server::FsyncPolicy;
using server::JournalFaults;
using server::SessionJournal;
using server::SessionJournalOptions;
using testing::SeverableChannel;

SessionJournalOptions options_in(const TempDir& dir, FsyncPolicy fsync = FsyncPolicy::kNever) {
    SessionJournalOptions o;
    o.dir = dir.path;
    o.fsync = fsync;
    return o;
}

TEST(SessionJournalFile, RoundTripAcrossReopen) {
    TempDir dir;
    std::string path;
    {
        SessionJournal j("design-review", options_in(dir));
        ASSERT_TRUE(j.open().is_ok());
        path = j.path();
        EXPECT_EQ(j.recovered().records_scanned, 0u);
        EXPECT_EQ(j.append_frame(7, bytes_of("frame-one")), 1u);
        EXPECT_EQ(j.append_frame(8, bytes_of("frame-two")), 2u);
        EXPECT_EQ(j.append_detach(7), 3u);
        EXPECT_TRUE(j.sync().is_ok());
        EXPECT_EQ(j.appends(), 3u);
        EXPECT_EQ(j.last_seq(), 3u);

        // The file reader (the /journal route) sees the same records while
        // the journal is still open for appends.
        const auto records = SessionJournal::read_records(path);
        ASSERT_EQ(records.size(), 3u);
        EXPECT_EQ(records[0].seq, 1u);
        EXPECT_EQ(records[0].origin, 7u);
        EXPECT_EQ(records[0].body, bytes_of("frame-one"));
        EXPECT_GT(records[0].bytes, records[0].body.size());
        EXPECT_EQ(records[2].type, SessionJournal::RecordType::kDetach);
    }
    SessionJournal j("design-review", options_in(dir));
    ASSERT_TRUE(j.open().is_ok());
    EXPECT_EQ(j.path(), path);
    const SessionJournal::Recovered& r = j.recovered();
    EXPECT_TRUE(r.snapshot.empty());
    EXPECT_EQ(r.last_seq, 3u);
    EXPECT_EQ(r.torn_bytes, 0u);
    ASSERT_EQ(r.tail.size(), 3u);
    EXPECT_EQ(r.tail[0].type, SessionJournal::RecordType::kFrame);
    EXPECT_EQ(r.tail[0].origin, 7u);
    EXPECT_EQ(r.tail[0].body, bytes_of("frame-one"));
    EXPECT_EQ(r.tail[1].body, bytes_of("frame-two"));
    EXPECT_EQ(r.tail[2].type, SessionJournal::RecordType::kDetach);
    EXPECT_EQ(r.tail[2].origin, 7u);
    // The sequence resumes where the crashed instance left off.
    EXPECT_EQ(j.append_frame(9, bytes_of("frame-three")), 4u);
}

TEST(SessionJournalFile, ReadRecordsKeepsOnlyTheNewest) {
    TempDir dir;
    SessionJournal j("design-review", options_in(dir));
    ASSERT_TRUE(j.open().is_ok());
    for (std::uint32_t origin = 1; origin <= 5; ++origin) {
        (void)j.append_frame(origin, bytes_of("frame-" + std::to_string(origin)));
    }
    const auto newest = SessionJournal::read_records(j.path(), 2);
    ASSERT_EQ(newest.size(), 2u);
    EXPECT_EQ(newest[0].seq, 4u);
    EXPECT_EQ(newest[0].body, bytes_of("frame-4"));
    EXPECT_EQ(newest[1].seq, 5u);
    EXPECT_EQ(newest[1].body, bytes_of("frame-5"));
    EXPECT_EQ(SessionJournal::read_records(j.path(), 10).size(), 5u);
    EXPECT_TRUE(SessionJournal::read_records(j.path(), 0).empty());
}

TEST(SessionJournalFile, ReadSessionNameRecoversExactName) {
    TempDir dir;
    SessionJournal j("atelier/März", options_in(dir));
    ASSERT_TRUE(j.open().is_ok());
    const auto name = SessionJournal::read_session_name(j.path());
    ASSERT_TRUE(name.has_value());
    EXPECT_EQ(*name, "atelier/März");

    // Foreign files are politely declined.
    const std::string junk = dir.path + "/not-a-journal.cosj";
    std::ofstream(junk, std::ios::binary) << "definitely not COSJ";
    EXPECT_FALSE(SessionJournal::read_session_name(junk).has_value());
    EXPECT_FALSE(SessionJournal::read_session_name(dir.path + "/absent.cosj").has_value());
}

TEST(SessionJournalFile, HeaderNameMismatchStartsFresh) {
    TempDir dir;
    std::string alpha_path;
    {
        SessionJournal alpha("alpha", options_in(dir));
        ASSERT_TRUE(alpha.open().is_ok());
        EXPECT_EQ(alpha.append_frame(1, bytes_of("payload")), 1u);
        alpha_path = alpha.path();
    }
    // Masquerade alpha's file under beta's filesystem name: the header's
    // embedded session name exposes the fraud and beta starts fresh instead
    // of replaying a foreign session's history.
    const fs::path beta_path = fs::path(dir.path) / SessionJournal::file_name("beta");
    fs::rename(alpha_path, beta_path);
    SessionJournal beta("beta", options_in(dir));
    ASSERT_TRUE(beta.open().is_ok());
    EXPECT_TRUE(beta.recovered().tail.empty());
    EXPECT_EQ(beta.recovered().last_seq, 0u);
    EXPECT_EQ(beta.append_frame(2, bytes_of("fresh")), 1u);
    const auto name = SessionJournal::read_session_name(beta.path());
    ASSERT_TRUE(name.has_value());
    EXPECT_EQ(*name, "beta");
}

// The torn-write property test: truncate the journal at EVERY byte offset
// inside the last record. Recovery must never crash, must salvage exactly
// the longest valid prefix, must reject the torn tail via framing/CRC, and
// must leave the file positioned so the next append lands cleanly.
TEST(SessionJournalFile, TornTailRecoveredAtEveryByteOffset) {
    TempDir dir;
    std::size_t intact_bytes = 0;
    std::string path;
    {
        SessionJournal j("torn", options_in(dir));
        ASSERT_TRUE(j.open().is_ok());
        for (std::uint32_t i = 1; i <= 4; ++i) {
            ASSERT_EQ(j.append_frame(i, bytes_of("record-" + std::to_string(i))), i);
        }
        intact_bytes = j.bytes_on_disk();
        ASSERT_EQ(j.append_frame(5, bytes_of("the-final-record-torn-by-a-crash")), 5u);
        path = j.path();
    }
    const std::vector<std::uint8_t> full = read_file(path);
    ASSERT_GT(full.size(), intact_bytes);

    for (std::size_t cut = intact_bytes; cut < full.size(); ++cut) {
        TempDir scratch;
        const fs::path copy = fs::path(scratch.path) / SessionJournal::file_name("torn");
        {
            std::ofstream out(copy, std::ios::binary);
            out.write(reinterpret_cast<const char*>(full.data()),
                      static_cast<std::streamsize>(cut));
        }
        SessionJournal j("torn", options_in(scratch));
        ASSERT_TRUE(j.open().is_ok()) << "cut at byte " << cut;
        const SessionJournal::Recovered& r = j.recovered();
        ASSERT_EQ(r.tail.size(), 4u) << "cut at byte " << cut;
        EXPECT_EQ(r.last_seq, 4u) << "cut at byte " << cut;
        EXPECT_EQ(r.torn_bytes, cut - intact_bytes) << "cut at byte " << cut;
        EXPECT_EQ(r.tail[3].body, bytes_of("record-4"));
        // The tear was truncated away; appends continue on a clean boundary.
        EXPECT_EQ(fs::file_size(copy), intact_bytes);
        EXPECT_EQ(j.append_frame(9, bytes_of("after-recovery")), 5u);
    }
}

TEST(SessionJournalFile, CompactionRewritesToSnapshotAndKeepsSequence) {
    TempDir dir;
    SessionJournalOptions o = options_in(dir);
    o.compact_bytes = 1;  // arm immediately
    SessionJournal j("compact-me", o);
    ASSERT_TRUE(j.open().is_ok());
    for (std::uint32_t i = 1; i <= 10; ++i) {
        ASSERT_EQ(j.append_frame(i, bytes_of("bulk-record-" + std::to_string(i))), i);
    }
    ASSERT_TRUE(j.should_compact());
    const std::size_t before = j.bytes_on_disk();
    const std::vector<std::uint8_t> image = bytes_of("the-session-snapshot-image");
    ASSERT_TRUE(j.compact(image).is_ok());
    EXPECT_LT(j.bytes_on_disk(), before);
    // The sequence continues unbroken across the rewrite.
    EXPECT_EQ(j.append_frame(42, bytes_of("post-compact")), 11u);

    SessionJournal reopened("compact-me", o);
    ASSERT_TRUE(reopened.open().is_ok());
    const SessionJournal::Recovered& r = reopened.recovered();
    EXPECT_EQ(r.snapshot, image);
    EXPECT_EQ(r.snapshot_seq, 10u);
    ASSERT_EQ(r.tail.size(), 1u);
    EXPECT_EQ(r.tail[0].seq, 11u);
    EXPECT_EQ(r.tail[0].body, bytes_of("post-compact"));
    EXPECT_EQ(r.last_seq, 11u);
}

TEST(SessionJournalFile, FsyncFaultLatchesAppendsClosed) {
    TempDir dir;
    SessionJournal j("flaky-disk", options_in(dir, FsyncPolicy::kAlways));
    ASSERT_TRUE(j.open().is_ok());
    EXPECT_EQ(j.append_frame(1, bytes_of("ok")), 1u);
    j.set_faults(JournalFaults{.fail_fsyncs = 1, .short_writes = 0});
    // The record hits the file but its durability point fails: the journal
    // latches failed and refuses to stack further records atop the doubt.
    EXPECT_EQ(j.append_frame(2, bytes_of("doomed")), 2u);
    EXPECT_EQ(j.append_frame(3, bytes_of("never-lands")), 0u);
    EXPECT_EQ(j.appends(), 2u);
}

TEST(SessionJournalFile, ShortWriteLeavesRecoverableTornTail) {
    TempDir dir;
    std::uint64_t salvaged_seq = 0;
    {
        SessionJournal j("short-write", options_in(dir));
        ASSERT_TRUE(j.open().is_ok());
        EXPECT_EQ(j.append_frame(1, bytes_of("good-record")), 1u);
        j.set_faults(JournalFaults{.fail_fsyncs = 0, .short_writes = 1});
        // Half the record reaches the disk; the journal latches failed.
        EXPECT_EQ(j.append_frame(2, bytes_of("this-one-tears-in-half")), 0u);
        EXPECT_EQ(j.append_frame(3, bytes_of("refused")), 0u);
        salvaged_seq = j.last_seq();
    }
    SessionJournal j("short-write", options_in(dir));
    ASSERT_TRUE(j.open().is_ok());
    const SessionJournal::Recovered& r = j.recovered();
    ASSERT_EQ(r.tail.size(), 1u);
    EXPECT_EQ(r.tail[0].body, bytes_of("good-record"));
    EXPECT_EQ(r.last_seq, 1u);
    EXPECT_EQ(salvaged_seq, 1u);
    EXPECT_GT(r.torn_bytes, 0u);
}

// --- crash-restart convergence through a full LocalSession -------------------

using apps::LocalSession;

server::SessionManagerOptions journaled_options(const std::string& dir) {
    server::SessionManagerOptions o;
    o.journal_dir = dir;
    o.journal_fsync = server::FsyncPolicy::kNever;  // page cache is plenty in-process
    o.sync_late_joiners = true;
    return o;
}

/// Canonical serialization of the four §2.1 databases plus the registry —
/// the convergence yardstick for restart tests.
std::vector<std::uint8_t> db_fingerprint(const server::CoSession& s) {
    ByteWriter w;
    s.couples().snapshot(w);
    s.locks().snapshot(w);
    s.history().snapshot(w);
    s.permissions().snapshot(w);
    for (const protocol::RegistrationRecord& r : s.registrations()) {
        w.u32(r.instance);
        w.u32(r.user);
        w.str(r.user_name);
        w.str(r.app_name);
    }
    return w.data();
}

void build_ui(client::CoApp& app) {
    (void)app.ui().root().add_child(toolkit::WidgetClass::kTextField, "field");
    (void)app.ui().root().add_child(toolkit::WidgetClass::kTextField, "notes");
}

/// Identical traffic against any session: couple, floor-controlled emit,
/// loose marker, a permission rule, and a burst of commands.
void drive_founders(LocalSession& s, client::CoApp& a, client::CoApp& b) {
    a.couple("field", b.ref("field"));
    s.run();
    a.emit("field",
           a.ui().find("field")->make_event(toolkit::EventType::kValueChanged, std::string{"durable"}));
    s.run();
    b.set_loose("notes", true);
    s.run();
    a.set_permission(b.user(), "field", protocol::kAllRights, false);
    s.run();
    for (std::uint8_t i = 0; i < 3; ++i) {
        b.send_command("tick", {i});
        s.run();
    }
}

// The PR acceptance test: drive a journaled session, kill the server without
// warning (auto-pump off freezes the disk image exactly as SIGKILL would),
// restart a fresh manager on the same journal dir, and require (a) the
// recovered databases byte-identical to a never-restarted control, (b) a
// reconnecting client resuming its original instance id, and (c) a brand-new
// late joiner syncing in cleanly — with post-restart traffic converging to
// the same state as the control's.
TEST(JournalRecovery, CrashRestartConvergesWithControl) {
    TempDir dir;
    TempDir control_dir;

    // The control lives the same life, minus the crash.
    LocalSession control{journaled_options(control_dir.path)};
    control.set_conformance(true);
    client::CoApp& ctl_a = control.add_app("editor", "alice", 1);
    client::CoApp& ctl_b = control.add_app("editor", "bob", 2);
    build_ui(ctl_a);
    build_ui(ctl_b);
    drive_founders(control, ctl_a, ctl_b);

    InstanceId original_a = kInvalidInstance;
    std::vector<std::uint8_t> crashed_fp;
    std::vector<std::string> crashed_groups;
    {
        LocalSession s{journaled_options(dir.path)};
        s.set_conformance(true);
        client::CoApp& a = s.add_app("editor", "alice", 1);
        client::CoApp& b = s.add_app("editor", "bob", 2);
        build_ui(a);
        build_ui(b);
        drive_founders(s, a, b);
        EXPECT_TRUE(s.conformance_violations().empty());
        original_a = a.instance();
        crashed_fp = db_fingerprint(s.server());
        crashed_groups = a.coupled_paths();
        // SIGKILL: teardown below must not reach the disk.
        s.server().set_auto_pump(false);
    }
    ASSERT_NE(original_a, kInvalidInstance);
    EXPECT_EQ(crashed_fp, db_fingerprint(control.server()));

    // Restart: the boot scan finds default.cosj and replays it.
    LocalSession restarted{journaled_options(dir.path)};
    restarted.set_conformance(true);
    ASSERT_NE(restarted.server().session_journal(), nullptr);
    EXPECT_EQ(db_fingerprint(restarted.server()), crashed_fp);
    EXPECT_EQ(db_fingerprint(restarted.server()), db_fingerprint(control.server()));

    // The reconnecting client resumes its pre-crash identity (ghost resume)
    // and gets its coupling groups back through the catch-up stream.
    client::CoApp& a2 = restarted.add_app("editor", "alice", 1);
    build_ui(a2);
    restarted.run();
    EXPECT_TRUE(a2.online());
    EXPECT_FALSE(a2.synchronizing());
    EXPECT_EQ(a2.instance(), original_a);
    EXPECT_EQ(a2.coupled_paths(), crashed_groups);
    EXPECT_EQ(a2.coupled_with("field"), ctl_a.coupled_with("field"));

    // A brand-new late joiner registers into the recovered session; both it
    // and the control's equivalent then couple the same object, and the
    // recovered world converges to the control's state.
    client::CoApp& joiner = restarted.add_app("viewer", "carol", 3);
    client::CoApp& ctl_joiner = control.add_app("viewer", "carol", 3);
    build_ui(joiner);
    build_ui(ctl_joiner);
    joiner.couple("notes", ObjectRef{a2.instance(), "notes"});
    ctl_joiner.couple("notes", ObjectRef{ctl_a.instance(), "notes"});
    restarted.run();
    control.run();
    EXPECT_TRUE(joiner.online());
    // Brand-new joiners draw fresh instance ids (the restarted allocator
    // resumes above the recovered floor, and alice's reconnect consumed one
    // transport id before resume-aliasing), so whole-db fingerprints are not
    // comparable here; the coupling semantics must still match exactly.
    EXPECT_EQ(joiner.coupled_with("notes"), ctl_joiner.coupled_with("notes"));
    EXPECT_EQ(restarted.server().couples().links().size(), control.server().couples().links().size());
    EXPECT_EQ(restarted.server().registered_count(), control.server().registered_count());
    EXPECT_TRUE(restarted.conformance_violations().empty());
    EXPECT_TRUE(control.conformance_violations().empty());
}

std::vector<std::uint8_t> fingerprint_of(const server::CoSession& s) {
    ByteWriter w;
    s.fingerprint(w);
    return w.data();
}

// Protocol v4 moved only the server-to-client Sync* tags, so a journal
// written at v3 is byte-valid, but its Register frames still carry
// version 3. The version gate is for live peers: recovery must replay those
// Registers and land on the state of the session that wrote the journal,
// not strand every recovered member unregistered.
TEST(JournalRecovery, V3RegisterReplaysToTheLiveFingerprint) {
    TempDir live_dir;
    TempDir v3_dir;
    const auto journaled_in = [](const TempDir& dir) {
        server::SessionManagerOptions o;
        o.journal_dir = dir.path;
        o.journal_fsync = FsyncPolicy::kNever;
        return o;
    };
    net::SimNetwork net;
    server::SessionManager live_server{journaled_in(live_dir)};

    std::vector<std::shared_ptr<SeverableChannel>> server_ends;
    std::vector<std::unique_ptr<client::CoApp>> apps;
    for (const UserId user : {UserId{1}, UserId{2}}) {
        auto [client_end, server_end] = net.make_pipe();
        server_ends.push_back(std::make_shared<SeverableChannel>(server_end));
        (void)live_server.attach(server_ends.back());
        apps.push_back(std::make_unique<client::CoApp>("editor", "user" + std::to_string(user), user));
        build_ui(*apps.back());
        apps.back()->connect(client_end);
    }
    net.run_all();
    client::CoApp& a = *apps[0];
    client::CoApp& b = *apps[1];
    ASSERT_TRUE(a.online() && b.online());
    a.couple("field", b.ref("field"));
    net.run_all();
    a.emit("field",
           a.ui().find("field")->make_event(toolkit::EventType::kValueChanged, std::string{"v3"}));
    net.run_all();
    b.set_loose("notes", true);
    a.set_permission(b.user(), "field", protocol::kAllRights, false);
    net.run_all();
    const server::CoSession& live = live_server.default_session();
    ASSERT_EQ(live.registrations().size(), 2u);

    // Rewrite the journal as a v3 server would have left it: the same
    // records, with every Register frame stamped version 3.
    std::size_t downgraded = 0;
    {
        SessionJournal written{"", options_in(live_dir)};
        ASSERT_TRUE(written.open().is_ok());
        SessionJournal v3{"", options_in(v3_dir)};
        ASSERT_TRUE(v3.open().is_ok());
        for (const SessionJournal::Record& rec : written.recovered().tail) {
            ASSERT_EQ(rec.type, SessionJournal::RecordType::kFrame);
            auto decoded = protocol::decode_message(rec.body);
            ASSERT_TRUE(decoded.is_ok());
            if (auto* reg = std::get_if<protocol::Register>(&decoded.value())) {
                reg->version = 3;
                ++downgraded;
            }
            const protocol::Frame frame = protocol::encode_message(decoded.value());
            (void)v3.append_frame(rec.origin, frame.bytes());
        }
        ASSERT_TRUE(v3.sync().is_ok());
    }
    ASSERT_EQ(downgraded, 2u);

    // The killed server's connections are gone without a departure record.
    for (const auto& end : server_ends) end->sever();
    // A second server boots from the v3 journal directory.
    server::SessionManager recovered_server{journaled_in(v3_dir)};
    const server::CoSession* recovered = recovered_server.find_session("");
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(recovered->registrations().size(), 2u);
    EXPECT_EQ(fingerprint_of(*recovered), fingerprint_of(live));
    EXPECT_TRUE(recovered->check_invariants().empty());
}

// Mid-burst join: hold the joiner in the synchronizing state (auto-pump
// suspended), stream live commands — founders see them immediately, the
// joiner's copies buffer server-side — then promote and require the joiner
// observed every frame, in order, with zero conformance violations.
TEST(LateJoinerSync, MidBurstJoinerSeesEveryFrameInOrder) {
    TempDir dir;
    LocalSession s{journaled_options(dir.path)};
    s.set_conformance(true);
    client::CoApp& a = s.add_app("editor", "alice", 1);
    client::CoApp& b = s.add_app("editor", "bob", 2);
    build_ui(a);
    build_ui(b);
    a.couple("field", b.ref("field"));
    s.run();

    std::vector<int> b_seen;
    std::vector<int> c_seen;
    b.on_command("tick", [&](InstanceId, std::span<const std::uint8_t> payload) {
        b_seen.push_back(payload.empty() ? -1 : payload.front());
    });

    // Suspend promotion: the joiner completes the handshake prologue but
    // stays buffered behind SyncEnd.
    s.server().set_auto_pump(false);
    client::CoApp& c = s.add_app("viewer", "carol", 3);
    c.on_command("tick", [&](InstanceId, std::span<const std::uint8_t> payload) {
        c_seen.push_back(payload.empty() ? -1 : payload.front());
    });
    EXPECT_TRUE(c.synchronizing());
    EXPECT_FALSE(c.online());
    EXPECT_TRUE(s.server().is_synchronizing(c.instance()));

    // The live burst: founders receive immediately, the joiner buffers.
    for (std::uint8_t i = 0; i < 5; ++i) {
        a.send_command("tick", {i});
        s.run();
    }
    EXPECT_EQ(b_seen, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(c_seen.empty());
    EXPECT_TRUE(c.synchronizing());

    // Promote: SyncStep replays the buffer in order, SyncEnd flips online.
    s.server().set_auto_pump(true);
    s.server().pump();
    s.run();
    EXPECT_FALSE(c.synchronizing());
    EXPECT_TRUE(c.online());
    EXPECT_FALSE(s.server().is_synchronizing(c.instance()));
    EXPECT_EQ(c_seen, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(c.stats().sync_steps_applied, 5u);

    // Live traffic flows normally after the promote.
    a.send_command("tick", {9});
    s.run();
    EXPECT_EQ(c_seen.back(), 9);
    EXPECT_TRUE(s.conformance_violations().empty());
}

}  // namespace
}  // namespace cosoft
