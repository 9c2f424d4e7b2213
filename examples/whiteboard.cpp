// Dynamic population (§2.2): a shared whiteboard where participants form
// and reshape sub-groups at runtime.
//
// Four participants each own a canvas. Sub-groups are pure runtime
// decisions: {p0,p1} and {p2,p3} first, then p1 migrates to the second
// group. Undo (historical UI states) rolls a canvas back after a state copy.
//
// Run: ./whiteboard
#include <cstdio>

#include "cosoft/client/co_app.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/server/session_manager.hpp"

using namespace cosoft;

namespace {

void show(const std::vector<client::CoApp*>& apps) {
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto strokes = apps[i]->ui().find("canvas")->text_list("strokes");
        std::printf("  p%zu: %zu strokes [", i, strokes.size());
        for (std::size_t j = 0; j < strokes.size(); ++j) std::printf("%s%s", j ? ", " : "", strokes[j].c_str());
        std::printf("]\n");
    }
}

}  // namespace

int main() {
    std::printf("== Whiteboard: dynamic sub-groups over coupled canvases ==\n\n");

    net::SimNetwork network;
    server::SessionManager manager;
    server::CoSession& server = manager.default_session();  // the coupling session every app joins
    std::vector<std::unique_ptr<client::CoApp>> owned;
    std::vector<client::CoApp*> p;
    for (int i = 0; i < 4; ++i) {
        owned.push_back(std::make_unique<client::CoApp>("whiteboard", "user" + std::to_string(i),
                                                        static_cast<UserId>(20 + i)));
        auto [client_end, server_end] = network.make_pipe({.latency = sim::kMillisecond});
        manager.attach(server_end);
        owned.back()->connect(client_end);
        (void)owned.back()->ui().root().add_child(toolkit::WidgetClass::kCanvas, "canvas");
        p.push_back(owned.back().get());
    }
    network.run_all();

    const auto draw = [&](int who, const std::string& stroke) {
        p[static_cast<std::size_t>(who)]->emit(
            "canvas", p[static_cast<std::size_t>(who)]->ui().find("canvas")->make_event(
                          toolkit::EventType::kStroke, stroke));
        network.run_all();
    };

    std::printf("runtime sub-groups: {p0,p1} and {p2,p3}\n");
    p[0]->couple("canvas", p[1]->ref("canvas"));
    p[2]->couple("canvas", p[3]->ref("canvas"));
    network.run_all();

    draw(0, "circle@p0");
    draw(3, "box@p3");
    show(p);

    std::printf("\np1 leaves group 1 and joins group 2 (runtime re-grouping)\n");
    p[0]->decouple("canvas", p[1]->ref("canvas"));
    network.run_all();
    p[1]->couple("canvas", p[2]->ref("canvas"));
    network.run_all();

    draw(2, "arrow@p2");
    show(p);
    std::printf("  (p0 kept its canvas but no longer receives strokes)\n");

    // Late joining via synchronization by state: p0 re-joins group 2 and
    // first copies the current canvas state from p2, then couples.
    std::printf("\np0 re-joins: CopyFrom(p2) then couple — the §3.1 late-join pattern\n");
    p[0]->copy_from(p[2]->ref("canvas"), "canvas", protocol::MergeMode::kStrict);
    network.run_all();
    p[0]->couple("canvas", p[2]->ref("canvas"));
    network.run_all();
    draw(1, "note@p1");
    show(p);

    // Undo: p0's canvas state before the CopyFrom is stored on the server.
    std::printf("\np0 undoes the state copy (historical UI states on the server)\n");
    p[0]->undo("canvas");
    network.run_all();
    show(p);

    // Loose coupling: p3 switches to periodic updates; strokes queue at the
    // server until p3 syncs (the §2.2 time relaxation).
    std::printf("\np3 goes loose (periodic updates); p1 keeps drawing\n");
    p[3]->set_loose("canvas", true);
    network.run_all();
    draw(1, "fast-1");
    draw(1, "fast-2");
    std::printf("  p3 strokes now: %zu (deferred at server: %zu)\n",
                p[3]->ui().find("canvas")->text_list("strokes").size(),
                server.deferred_count(p[3]->ref("canvas")));
    p[3]->sync_now("canvas");
    network.run_all();
    std::printf("  after sync_now: p3 strokes: %zu\n",
                p[3]->ui().find("canvas")->text_list("strokes").size());

    std::printf("\nserver: %llu couple links active, %llu undo states remaining for p0\n",
                static_cast<unsigned long long>(server.couples().link_count()),
                static_cast<unsigned long long>(server.history().undo_depth(p[0]->ref("canvas"))));
    return 0;
}
