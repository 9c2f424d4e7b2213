// The journal snapshot image, pinned byte for byte. One session is built
// through real dispatch until it holds every kind of state the image
// carries; its snapshot() must keep these exact bytes (journals already on
// disk recover from them), restore() must reproduce them, and a damaged
// image must fail restore() and leave the session empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cosoft/client/co_app.hpp"
#include "cosoft/common/bytes.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/protocol/field_codec.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/co_session.hpp"
#include "cosoft/server/session_manager.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using testing::hex;
using testing::SeverableChannel;

std::vector<std::uint8_t> snapshot_of(const server::CoSession& s) {
    ByteWriter w;
    s.snapshot(w);
    return w.data();
}

std::vector<std::uint8_t> fingerprint_of(const server::CoSession& s) {
    ByteWriter w;
    s.fingerprint(w);
    return w.data();
}

/// The snapshot and fingerprint of a session holding every kind of state:
/// couple links created from both ends, a lock held by an in-flight action
/// that one partner never acks, a copy waiting on a source that never
/// answers, undo and redo history, permission rules installed out of sorted
/// order, a loose object with a deferred re-execution, and a departed
/// connection. Every connection is then severed without a departure, as a
/// killed server leaves them.
struct Golden {
    std::vector<std::uint8_t> image;
    std::vector<std::uint8_t> fingerprint;
};

const Golden& golden() {
    static const Golden built = [] {
        net::SimNetwork net;
        server::SessionManager manager;
        std::vector<std::shared_ptr<SeverableChannel>> server_ends;
        const auto attach = [&] {
            auto [client_end, server_end] = net.make_pipe();
            server_ends.push_back(std::make_shared<SeverableChannel>(server_end));
            const InstanceId id = manager.attach(server_ends.back());
            return std::pair{client_end, id};
        };
        const auto app = [&](const char* name, UserId user) {
            auto a = std::make_unique<client::CoApp>("editor", name, user);
            for (const char* path : {"field", "notes", "doc", "memo", "inbox"}) {
                (void)a->ui().root().add_child(toolkit::WidgetClass::kTextField, path);
            }
            a->connect(attach().first);
            net.run_all();
            return a;
        };
        auto alice = app("alice", 1);
        auto bob = app("bob", 2);
        auto dave = app("dave", 4);

        // A raw client that registers and then never answers anything.
        auto [carol_end, carol] = attach();
        carol_end->on_receive([](const protocol::Frame&) {});
        (void)carol_end->send(protocol::encode_message(protocol::Register{3, "carol", "lab", "raw", protocol::kProtocolVersion, {}}));
        net.run_all();
        const ObjectRef carol_w{carol, "w"};

        alice->couple("field", bob->ref("field"));
        bob->couple("notes", alice->ref("notes"));
        alice->couple("field", carol_w);
        dave->couple("doc", alice->ref("memo"));
        net.run_all();

        alice->set_permission(7, "memo", protocol::kAllRights, false);
        alice->set_permission(2, "memo", static_cast<protocol::RightsMask>(protocol::Right::kView), true);
        net.run_all();

        for (const char* text : {"first", "second"}) {
            alice->ui().find("doc")->set_attribute("value", std::string{text});
            alice->copy_to("doc", bob->ref("doc"));
            net.run_all();
        }
        bob->undo("doc");
        net.run_all();

        bob->set_loose("notes", true);
        net.run_all();
        alice->emit("notes", alice->ui().find("notes")->make_event(toolkit::EventType::kValueChanged,
                                                                    std::string{"deferred"}));
        net.run_all();

        alice->emit("field", alice->ui().find("field")->make_event(toolkit::EventType::kValueChanged,
                                                                    std::string{"in flight"}));
        net.run_all();
        alice->copy_from(carol_w, "inbox", protocol::MergeMode::kFlexible);
        net.run_all();

        dave.reset();  // departs through the real cleanup path
        net.run_all();
        for (const auto& end : server_ends) end->sever();

        const server::CoSession& live = manager.default_session();
        EXPECT_EQ(live.connection_count(), 3u);
        EXPECT_EQ(live.couples().link_count(), 3u);
        EXPECT_EQ(live.pending_action_count(), 1u);
        EXPECT_EQ(live.locks().locked_count(), 3u);
        EXPECT_EQ(live.history().undo_depth(bob->ref("doc")), 1u);
        EXPECT_EQ(live.history().redo_depth(bob->ref("doc")), 1u);
        EXPECT_EQ(live.permissions().rule_count(), 2u);
        EXPECT_TRUE(live.is_loose(bob->ref("notes")));
        EXPECT_EQ(live.deferred_count(bob->ref("notes")), 1u);
        EXPECT_TRUE(live.check_invariants().empty());
        return Golden{snapshot_of(live), fingerprint_of(live)};
    }();
    return built;
}

/// Format version 1, as journals on disk hold it.
constexpr const char* kGoldenHex =
    "01000301010105616c696365096c6f63616c686f737406656469746f720602010203626f62096c6f63616c68"
    "6f737406656469746f7205040103056361726f6c036c61620372617703050301056669656c6402056669656c"
    "640102056e6f74657301056e6f7465730201056669656c64040177010101080301056669656c640205666965"
    "6c6404017740010203646f63010303646f630a05636f6c6f720405626c61636b04666f6e7404056669786564"
    "066865696768740230056c6162656c0400066d61786c656e0280040576616c756504000776697369626c6501"
    "0105776964746802c801017802000179020000010303646f630a05636f6c6f720405626c61636b04666f6e74"
    "04056669786564066865696768740230056c6162656c0400066d61786c656e0280040576616c756504067365"
    "636f6e640776697369626c65010105776964746802c801017802000179020000020701046d656d6f07000201"
    "046d656d6f0101010108010103010002000401010101090401770105696e626f780200020102056e6f746573"
    "0102056e6f74657301240d0701056e6f7465730102056e6f7465730001056e6f746573040864656665727265"
    "640001192300020200030a000100080f00";

/// What a failed restore must leave behind: the state of a fresh session
/// (connections, the four databases, the in-flight tables, the instance
/// floor). Counters are not part of it.
std::vector<std::uint8_t> state_of(const server::CoSession& s) {
    ByteWriter w;
    s.couples().snapshot(w);
    s.locks().snapshot(w);
    s.history().snapshot(w);
    s.permissions().snapshot(w);
    w.u64(s.connection_count());
    w.u64(s.pending_action_count());
    w.u32(s.instance_floor());
    return w.data();
}

TEST(SnapshotGolden, ImageIsPinned) { EXPECT_EQ(hex(golden().image), kGoldenHex); }

TEST(SnapshotGolden, RestoreThenSnapshotIsByteIdentical) {
    server::CoSession restored;
    ByteReader r{golden().image};
    ASSERT_TRUE(restored.restore(r));
    EXPECT_EQ(snapshot_of(restored), golden().image);
    // Every connection of the source session was severed, and restore brings
    // connections back as disconnected ghosts: the fingerprints must agree.
    EXPECT_EQ(fingerprint_of(restored), golden().fingerprint);
    EXPECT_TRUE(restored.check_invariants().empty());
}

TEST(SnapshotGolden, EveryStrictPrefixFailsAndLeavesTheSessionEmpty) {
    const std::vector<std::uint8_t>& image = golden().image;
    ASSERT_FALSE(image.empty());
    const std::vector<std::uint8_t> empty = state_of(server::CoSession{});
    for (std::size_t cut = 0; cut < image.size(); ++cut) {
        server::CoSession s;
        ByteReader r{std::span<const std::uint8_t>{image}.first(cut)};
        EXPECT_FALSE(s.restore(r)) << "prefix of " << cut << " bytes restored";
        EXPECT_EQ(state_of(s), empty) << "prefix of " << cut << " bytes left state behind";
    }
}

/// Restores `image` into a fresh session and requires it to fail and leave
/// the session exactly as fresh, counters included.
void expect_rejected(const std::vector<std::uint8_t>& image, const std::string& what) {
    const server::CoSession fresh;
    server::CoSession s;
    ByteReader r{image};
    EXPECT_FALSE(s.restore(r)) << what << " restored";
    EXPECT_EQ(snapshot_of(s), snapshot_of(fresh)) << what << " left state behind";
    EXPECT_EQ(fingerprint_of(s), fingerprint_of(fresh)) << what << " left state behind";
}

// A failed restore leaves no counter half-restored either: the counters are
// applied only once the whole image has decoded.
TEST(SnapshotGolden, EveryStrictPrefixLeavesTheCountersAtZero) {
    const std::vector<std::uint8_t>& image = golden().image;
    for (std::size_t cut = 0; cut < image.size(); ++cut) {
        expect_rejected({image.begin(), image.begin() + static_cast<std::ptrdiff_t>(cut)},
                        "prefix of " + std::to_string(cut) + " bytes");
    }
}

// The image is decoded with the wire's field codec, so it gets the wire's
// checks: an enum byte past its enum_max is rejected, not cast.
TEST(SnapshotGolden, MergeModePastItsMaxIsRejected) {
    std::vector<std::uint8_t> image = golden().image;
    // The pending copy's destination path is followed by its merge mode.
    const std::string marker = "inbox";
    const auto at = std::search(image.begin(), image.end(), marker.begin(), marker.end());
    ASSERT_NE(at, image.end());
    ASSERT_EQ(std::search(at + 1, image.end(), marker.begin(), marker.end()), image.end());
    const auto mode = at + static_cast<std::ptrdiff_t>(marker.size());
    ASSERT_EQ(*mode, static_cast<std::uint8_t>(protocol::MergeMode::kFlexible));
    *mode = static_cast<std::uint8_t>(protocol::enum_max(protocol::MergeMode{})) + 1;
    expect_rejected(image, "a merge mode past kFlexible");
}

TEST(SnapshotGolden, TrailingByteIsRejected) {
    std::vector<std::uint8_t> image = golden().image;
    image.push_back(0);
    expect_rejected(image, "an image with a trailing byte");
}

// Decoding refuses a key twice: a canonical image never repeats one.
TEST(FieldCodec, UnorderedTablesRejectRepeatedKeys) {
    const auto rejects = [](const std::vector<std::uint8_t>& bytes, auto table) {
        ByteReader r{bytes};
        protocol::decode_field(r, table);
        return !r.ok();
    };
    EXPECT_TRUE(rejects({2, 1, 10, 1, 11}, std::unordered_map<std::uint32_t, std::uint32_t>{}));
    EXPECT_TRUE(rejects({2, 7, 7}, std::unordered_set<std::uint32_t>{}));
}

}  // namespace
}  // namespace cosoft
