// The causal coupling tracer, end to end: wire-extension codec rules, span
// propagation across the §3.2 pipeline under SimNetwork and real TCP, the
// Chrome trace_event export, and the untraced/backward-compat paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/obs/trace.hpp"
#include "cosoft/toolkit/builder.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using client::CoApp;
using obs::ScopedSpan;
using obs::Span;
using obs::TraceContext;
using obs::Tracer;
using testing::pump_until;
using testing::Session;
using toolkit::EventType;
using toolkit::WidgetClass;

std::vector<std::uint8_t> bytes_of(const protocol::Frame& f) { return {f.data(), f.data() + f.size()}; }

/// The tracer is a process singleton; every test starts clean and disabled.
class TraceTest : public ::testing::Test {
  protected:
    void SetUp() override {
        Tracer::instance().set_enabled(false);
        Tracer::instance().clear();
    }
    void TearDown() override {
        Tracer::instance().set_enabled(false);
        Tracer::instance().clear();
    }
};

// --- wire extension codec ----------------------------------------------------

using TraceCodec = TraceTest;

TEST_F(TraceCodec, InvalidContextEncodesByteIdenticalToPlain) {
    const protocol::Message msg{protocol::LockReq{7, ObjectRef{1, "o"}, {}}};
    const auto plain = bytes_of(protocol::encode_message(msg));
    const auto traced = bytes_of(protocol::encode_message(msg, TraceContext{}));
    EXPECT_EQ(plain, traced);
}

TEST_F(TraceCodec, ExtensionRoundTripsThroughDecodeFrame) {
    const protocol::Message msg{protocol::LockReq{7, ObjectRef{1, "o"}, {}}};
    const TraceContext ctx{0xabcdef12u, 42};
    const protocol::Frame frame = protocol::encode_message(msg, ctx);
    EXPECT_EQ(frame.data()[0], protocol::kTraceExtensionTag);

    auto decoded = protocol::decode_frame(frame);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value().trace, ctx);
    EXPECT_EQ(decoded.value().message, msg);
}

TEST_F(TraceCodec, DecodeMessageDropsTheExtension) {
    const protocol::Message msg{protocol::ExecuteAck{11}};
    const protocol::Frame frame = protocol::encode_message(msg, TraceContext{5, 6});
    auto decoded = protocol::decode_message(frame);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), msg);
}

TEST_F(TraceCodec, UntracedFrameDecodesWithInvalidContext) {
    const protocol::Message msg{protocol::ExecuteAck{11}};
    auto decoded = protocol::decode_frame(protocol::encode_message(msg));
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_FALSE(decoded.value().trace.valid());
}

TEST_F(TraceCodec, TruncatedExtensionIsRejected) {
    const std::vector<std::uint8_t> truncated{protocol::kTraceExtensionTag, 0x01};
    EXPECT_FALSE(protocol::decode_frame(truncated).is_ok());
    EXPECT_FALSE(protocol::decode_message(truncated).is_ok());
}

TEST_F(TraceCodec, ZeroTraceIdExtensionIsRejected) {
    // A zero trace id is the "no context" sentinel; carrying it on the wire
    // is non-canonical and treated as malformed.
    ByteWriter w;
    w.u8(protocol::kTraceExtensionTag);
    w.u64(0);
    w.u64(9);
    w.u8(0);  // Register tag would follow; never reached
    const auto frame = std::move(w).take();
    EXPECT_FALSE(protocol::decode_frame(frame).is_ok());
}

TEST_F(TraceCodec, NestedExtensionIsRejected) {
    // The extension is a frame prefix, not a message: a second 0xE7 where
    // the inner tag should be is an unknown message tag.
    ByteWriter w;
    w.u8(protocol::kTraceExtensionTag);
    w.u64(1);
    w.u64(2);
    w.u8(protocol::kTraceExtensionTag);
    w.u64(3);
    w.u64(4);
    const auto frame = std::move(w).take();
    EXPECT_FALSE(protocol::decode_frame(frame).is_ok());
}

// --- tracer / spans ----------------------------------------------------------

using TracerBasics = TraceTest;

TEST_F(TracerBasics, DisabledMintsNothingAndRecordsNothing) {
    EXPECT_FALSE(Tracer::instance().start_trace().valid());
    { const ScopedSpan span{"stage", "test", TraceContext{1, 2}}; }
    EXPECT_TRUE(Tracer::instance().collect().empty());
}

TEST_F(TracerBasics, ScopedSpanPassesParentThroughWhenInactive) {
    const TraceContext parent{7, 8};
    const ScopedSpan span{"stage", "test", parent};
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.context(), parent);
}

TEST_F(TracerBasics, EnabledSpanRecordsWithFreshIdAndNonzeroDuration) {
    Tracer::instance().set_enabled(true);
    const TraceContext root = Tracer::instance().start_trace();
    ASSERT_TRUE(root.valid());
    TraceContext child;
    {
        const ScopedSpan span{"stage", "test", root, 99};
        EXPECT_TRUE(span.active());
        child = span.context();
        EXPECT_EQ(child.trace, root.trace);
        EXPECT_NE(child.span, root.span);
    }
    const auto spans = Tracer::instance().collect();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].trace, root.trace);
    EXPECT_EQ(spans[0].span, child.span);
    EXPECT_EQ(spans[0].parent, root.span);
    EXPECT_EQ(spans[0].arg, 99u);
    EXPECT_GE(spans[0].duration_ns, 1u);
    EXPECT_STREQ(spans[0].name, "stage");
}

TEST_F(TracerBasics, RingOverwritesOldestBeyondCapacity) {
    Tracer::instance().set_ring_capacity(8);
    Tracer::instance().set_enabled(true);
    // A fresh thread gets a ring with the new capacity.
    std::thread worker([] {
        for (int i = 0; i < 20; ++i) {
            const ScopedSpan span{"wrap", "test", Tracer::instance().start_trace()};
        }
    });
    worker.join();
    const auto spans = Tracer::instance().collect();
    const auto wrapped = std::count_if(spans.begin(), spans.end(),
                                       [](const Span& s) { return std::string_view{s.name} == "wrap"; });
    EXPECT_EQ(wrapped, 8);
    Tracer::instance().set_ring_capacity(4096);
}

TEST_F(TracerBasics, ChromeJsonShapesCompleteEvents) {
    Tracer::instance().set_enabled(true);
    { const ScopedSpan span{"client.dispatch", "client", Tracer::instance().start_trace(), 3}; }
    const std::string json = Tracer::instance().chrome_trace_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"client.dispatch\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"client\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    EXPECT_NE(json.find("\"trace\":"), std::string::npos);
}

// --- end-to-end propagation --------------------------------------------------

/// Span names recorded for trace `id`, with every duration checked nonzero.
std::vector<std::string> stage_names_of(std::uint64_t id) {
    std::vector<std::string> names;
    for (const Span& s : Tracer::instance().collect()) {
        if (s.trace != id) continue;
        EXPECT_GE(s.duration_ns, 1u) << s.name;
        names.emplace_back(s.name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::uint64_t single_dispatch_trace() {
    std::uint64_t id = 0;
    for (const Span& s : Tracer::instance().collect()) {
        if (std::string_view{s.name} != "client.dispatch") continue;
        EXPECT_EQ(id, 0u) << "more than one dispatch root recorded";
        id = s.trace;
    }
    return id;
}

std::size_t count_stage(const std::vector<std::string>& names, std::string_view stage) {
    return static_cast<std::size_t>(std::count(names.begin(), names.end(), std::string{stage}));
}

TEST_F(TraceTest, OneTraceSpansTheWholePipelineUnderSimNetwork) {
    Session s;
    CoApp& a = s.add_app("editorA", "alice", 1);
    CoApp& b = s.add_app("editorB", "bob", 2);
    CoApp& c = s.add_app("editorC", "carol", 3);
    for (CoApp* app : {&a, &b, &c}) {
        ASSERT_TRUE(app->ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    }
    a.couple("f", b.ref("f"));
    a.couple("f", c.ref("f"));
    s.run();
    ASSERT_TRUE(b.is_coupled("f"));
    ASSERT_TRUE(c.is_coupled("f"));

    // Trace only the emission itself, not the session setup.
    Tracer::instance().set_enabled(true);
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"traced"}));
    s.run();
    Tracer::instance().set_enabled(false);

    EXPECT_EQ(b.ui().find("f")->text("value"), "traced");
    EXPECT_EQ(c.ui().find("f")->text("value"), "traced");

    const std::uint64_t id = single_dispatch_trace();
    ASSERT_NE(id, 0u);
    const auto names = stage_names_of(id);
    EXPECT_EQ(count_stage(names, "client.dispatch"), 1u);
    EXPECT_EQ(count_stage(names, "server.lock"), 1u);
    EXPECT_EQ(count_stage(names, "client.callbacks"), 1u);
    EXPECT_EQ(count_stage(names, "server.broadcast"), 1u);
    EXPECT_EQ(count_stage(names, "client.replay"), 2u);  // both partners
    EXPECT_EQ(count_stage(names, "server.unlock"), 1u);
}

TEST_F(TraceTest, DistinctEmissionsMintDistinctTraces) {
    Session s;
    CoApp& a = s.add_app("editorA", "alice", 1);
    CoApp& b = s.add_app("editorB", "bob", 2);
    ASSERT_TRUE(a.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    ASSERT_TRUE(b.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    a.couple("f", b.ref("f"));
    s.run();

    Tracer::instance().set_enabled(true);
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"one"}));
    s.run();
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"two"}));
    s.run();
    Tracer::instance().set_enabled(false);

    std::vector<std::uint64_t> roots;
    for (const Span& span : Tracer::instance().collect()) {
        if (std::string_view{span.name} == "client.dispatch") roots.push_back(span.trace);
    }
    ASSERT_EQ(roots.size(), 2u);
    EXPECT_NE(roots[0], roots[1]);
}

TEST_F(TraceTest, TracingDisabledSessionRecordsNoSpans) {
    Session s;
    CoApp& a = s.add_app("editorA", "alice", 1);
    CoApp& b = s.add_app("editorB", "bob", 2);
    ASSERT_TRUE(a.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    ASSERT_TRUE(b.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    a.couple("f", b.ref("f"));
    s.run();
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"quiet"}));
    s.run();
    EXPECT_EQ(b.ui().find("f")->text("value"), "quiet");
    EXPECT_TRUE(Tracer::instance().collect().empty());
}

TEST_F(TraceTest, OneTraceSpansTheWholePipelineOverTcp) {
    testing::TcpRig rig;
    ASSERT_NE(rig.listener, nullptr);
    const std::vector<std::shared_ptr<net::TcpChannel>> pump{rig.connect(), rig.connect()};
    ASSERT_NE(pump[0], nullptr);
    ASSERT_NE(pump[1], nullptr);

    CoApp alice{"editor", "alice", 1};
    CoApp bob{"editor", "bob", 2};
    alice.connect(pump[0]);
    bob.connect(pump[1]);
    ASSERT_TRUE(pump_until(pump, [&] { return alice.online() && bob.online(); }));

    ASSERT_TRUE(alice.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    ASSERT_TRUE(bob.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    bool coupled = false;
    alice.couple("f", bob.ref("f"), [&](const Status& st) { coupled = st.is_ok(); });
    ASSERT_TRUE(pump_until(pump, [&] { return coupled && bob.is_coupled("f"); }));

    Tracer::instance().set_enabled(true);
    alice.emit("f", alice.ui().find("f")->make_event(EventType::kValueChanged, std::string{"traced"}));
    ASSERT_TRUE(pump_until(pump, [&] { return bob.ui().find("f")->text("value") == "traced"; }));
    ASSERT_TRUE(pump_until(pump, [&] { return rig.default_row().locks_held == 0; }));
    Tracer::instance().set_enabled(false);

    const std::uint64_t id = single_dispatch_trace();
    ASSERT_NE(id, 0u);
    const auto names = stage_names_of(id);
    EXPECT_EQ(count_stage(names, "client.dispatch"), 1u);
    EXPECT_EQ(count_stage(names, "server.lock"), 1u);
    EXPECT_EQ(count_stage(names, "client.callbacks"), 1u);
    EXPECT_EQ(count_stage(names, "server.broadcast"), 1u);
    EXPECT_EQ(count_stage(names, "client.replay"), 1u);
    EXPECT_EQ(count_stage(names, "server.unlock"), 1u);

    // The acceptance artifact: the whole coupled action exports as one
    // causally linked Chrome trace.
    const std::string json = Tracer::instance().chrome_trace_json();
    EXPECT_NE(json.find("client.dispatch"), std::string::npos);
    EXPECT_NE(json.find("server.broadcast"), std::string::npos);
    EXPECT_NE(json.find("client.replay"), std::string::npos);
}

TEST_F(TraceTest, ExtensionlessClientInteroperatesWithTracingServer) {
    // A client that never attaches trace contexts (tracing disabled) talks
    // to a server whose tracing is enabled: every frame stays valid and the
    // session behaves identically.
    Session s;
    CoApp& a = s.add_app("editorA", "alice", 1);
    CoApp& b = s.add_app("editorB", "bob", 2);
    ASSERT_TRUE(a.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    ASSERT_TRUE(b.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    a.couple("f", b.ref("f"));
    s.run();

    // No root is minted (emit ran while disabled), so server-side spans have
    // no valid parent and the wire stays extension-free end to end.
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"compat"}));
    Tracer::instance().set_enabled(true);
    s.run();
    Tracer::instance().set_enabled(false);

    EXPECT_EQ(b.ui().find("f")->text("value"), "compat");
    for (const Span& span : Tracer::instance().collect()) {
        EXPECT_NE(std::string_view{span.name}, "client.dispatch");
    }
    EXPECT_TRUE(s.conformance_violations().empty());
}

}  // namespace
}  // namespace cosoft
