// Quickstart: two application instances, one coupled pair of text fields.
//
// Demonstrates the minimal COSOFT workflow:
//   1. build a plain (single-user) widget tree,
//   2. connect to the central server,
//   3. couple a local object with a remote one,
//   4. emit events — they synchronize automatically,
//   5. decouple — both objects persist and diverge again.
//
// Run: ./quickstart
#include <cstdio>

#include "cosoft/client/co_app.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/server/session_manager.hpp"

using namespace cosoft;

namespace {

void show(const char* moment, client::CoApp& a, client::CoApp& b) {
    std::printf("%-34s alice=\"%s\"  bob=\"%s\"\n", moment, a.ui().find("field")->text("value").c_str(),
                b.ui().find("field")->text("value").c_str());
}

}  // namespace

int main() {
    std::printf("== COSOFT quickstart: coupling two text fields ==\n\n");

    // The central server and a deterministic in-process network.
    net::SimNetwork network;
    server::SessionManager manager;
    server::CoSession& server = manager.default_session();  // the coupling session every app joins

    // Two independent applications, each with its own widget tree.
    client::CoApp alice{"editorA", "alice", /*user=*/1};
    client::CoApp bob{"editorB", "bob", /*user=*/2};
    for (client::CoApp* app : {&alice, &bob}) {
        auto [client_end, server_end] = network.make_pipe({.latency = 2 * sim::kMillisecond});
        manager.attach(server_end);
        app->connect(client_end);
        (void)app->ui().root().add_child(toolkit::WidgetClass::kTextField, "field");
    }
    network.run_all();
    std::printf("registered: alice=instance %u, bob=instance %u\n\n", alice.instance(), bob.instance());

    show("before coupling:", alice, bob);

    // Couple alice's field with bob's. Any compatible objects would do —
    // they only have to exist; no a-priori linkage is required.
    alice.couple("field", bob.ref("field"),
                 [](const Status& st) { std::printf("couple -> %s\n", st.is_ok() ? "ok" : st.message().c_str()); });
    network.run_all();

    // Alice types. The §3.2 multiple-execution cycle locks the group,
    // executes locally, and re-executes the event at bob's replica.
    toolkit::Widget* field = alice.ui().find("field");
    alice.emit("field", field->make_event(toolkit::EventType::kValueChanged, std::string{"Hello, Bob!"}));
    network.run_all();
    show("after alice types:", alice, bob);

    // Bob answers through the same coupled group.
    bob.emit("field", bob.ui().find("field")->make_event(toolkit::EventType::kValueChanged,
                                                         std::string{"Hi Alice — works!"}));
    network.run_all();
    show("after bob answers:", alice, bob);

    // Decoupling: unlike a shared window, the objects do NOT disappear —
    // each keeps its state and evolves privately from here on.
    alice.decouple("field", bob.ref("field"));
    network.run_all();
    alice.emit("field", field->make_event(toolkit::EventType::kValueChanged, std::string{"private notes"}));
    network.run_all();
    show("after decoupling + edit:", alice, bob);

    std::printf("\nserver stats: %llu messages routed, %llu events broadcast, %llu locks granted\n",
                static_cast<unsigned long long>(server.stats().messages_received),
                static_cast<unsigned long long>(server.stats().events_broadcast),
                static_cast<unsigned long long>(server.stats().locks_granted));
    return 0;
}
