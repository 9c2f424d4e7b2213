// The full COSOFT stack over real TCP on localhost: a SessionManager server
// and two clients, coupling and synchronization driven through socket frames.
#include <gtest/gtest.h>

#include "cosoft/client/co_app.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using client::CoApp;
using testing::pump_until;
using testing::TcpRig;
using toolkit::EventType;
using toolkit::WidgetClass;

TEST(TcpStack, EndToEndCouplingOverSockets) {
    TcpRig rig;
    ASSERT_NE(rig.listener, nullptr);

    // Two clients connect; the server accepts and attaches each.
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

    Status emit_status{ErrorCode::kInvalidArgument, "pending"};
    alice.emit("f", alice.ui().find("f")->make_event(EventType::kValueChanged, std::string{"over tcp"}),
               [&](const Status& st) { emit_status = st; });
    ASSERT_TRUE(pump_until(pump, [&] { return bob.ui().find("f")->text("value") == "over tcp"; }));
    EXPECT_TRUE(emit_status.is_ok());
    EXPECT_TRUE(pump_until(pump, [&] { return rig.default_row().locks_held == 0; }));
}

TEST(TcpStack, ClientDisconnectCleansUpServerState) {
    TcpRig rig;
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
    ASSERT_TRUE(pump_until(pump, [&] { return coupled && rig.default_row().couples == 1; }));

    pump[0]->close();  // alice's process dies
    ASSERT_TRUE(pump_until(pump, [&] { return rig.default_row().couples == 0; }));
    EXPECT_TRUE(pump_until(pump, [&] { return !bob.is_coupled("f"); }));
}

}  // namespace
}  // namespace cosoft
