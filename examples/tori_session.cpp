// Cooperative TORI (§4): a joint database-retrieval session.
//
// Two researchers couple their TORI interfaces. Operator menus, query input
// fields, the view menu, and the *invocation* of queries synchronize — but
// each instance evaluates the shared query against its own database, exactly
// the behaviour (and the inherent limitation) discussed in the paper:
// "multiple evaluation is more flexible in that it allows queries to be
// different... Also, queries can be sent to different databases."
//
// Run: ./tori_session
#include <cstdio>

#include "cosoft/apps/tori.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/server/session_manager.hpp"
#include "cosoft/toolkit/render.hpp"

using namespace cosoft;

namespace {

void show_results(const char* who, const apps::ToriApp& tori) {
    std::printf("%s: %zu rows (of %zu matches) from %s\n", who, tori.last_result().rows.size(),
                tori.last_result().total_matches, tori.database().name().c_str());
    for (std::size_t i = 0; i < tori.last_result().rows.size() && i < 3; ++i) {
        std::printf("    ");
        for (const auto& cell : tori.last_result().rows[i]) std::printf("%-38s", cell.c_str());
        std::printf("\n");
    }
    if (tori.last_result().rows.size() > 3) std::printf("    ...\n");
}

}  // namespace

int main() {
    std::printf("== Cooperative TORI: joint retrieval over different databases ==\n\n");

    net::SimNetwork network;
    server::SessionManager server;
    const auto attach = [&](client::CoApp& app) {
        auto [client_end, server_end] = network.make_pipe({.latency = 2 * sim::kMillisecond});
        server.attach(server_end);
        app.connect(client_end);
    };

    client::CoApp alice_app{"tori", "alice", 1};
    client::CoApp bob_app{"tori", "bob", 2};
    attach(alice_app);
    attach(bob_app);

    // Same interface, different backing catalogues.
    apps::ToriApp alice{alice_app, db::make_literature_db("gmd-library", 400, /*seed=*/7),
                        {"author", "venue", "year"}};
    apps::ToriApp bob{bob_app, db::make_literature_db("uni-library", 250, /*seed=*/13),
                      {"author", "venue", "year"}};
    network.run_all();

    // Full joint session: the entire TORI form is coupled.
    alice.couple_full(bob_app.ref(apps::ToriApp::kRoot));
    network.run_all();
    std::printf("joint session established (whole TORI forms coupled)\n\n");
    std::printf("alice's display:\n%s\n",
                toolkit::render(*alice_app.ui().find(apps::ToriApp::kRoot)).c_str());

    // Alice formulates the query; every edit appears in bob's form too.
    // Each action completes its floor-control cycle before the next one —
    // back-to-back actions on one coupled group would race for the lock and
    // the losers would be undone (exactly the §3.2 serialization).
    alice.set_operator("author", db::CompareOp::kLikeOneOf);
    network.run_all();
    alice.set_operand("author", "Zhao,Hoppe");
    network.run_all();
    alice.set_operator("year", db::CompareOp::kGreaterEq);
    network.run_all();
    alice.set_operand("year", "1990");
    network.run_all();
    std::printf("alice formulates: author like-one-of \"Zhao,Hoppe\", year >= 1990\n");
    std::printf("bob's form mirrors: author=\"%s\" (%s), year=\"%s\" (%s)\n\n",
                bob_app.ui().find(apps::ToriApp::operand_field_path("author"))->text("value").c_str(),
                bob_app.ui().find(apps::ToriApp::operator_menu_path("author"))->text("selection").c_str(),
                bob_app.ui().find(apps::ToriApp::operand_field_path("year"))->text("value").c_str(),
                bob_app.ui().find(apps::ToriApp::operator_menu_path("year"))->text("selection").c_str());

    // One click, two evaluations: the invocation is synchronized, each site
    // queries its own database.
    alice.invoke();
    network.run_all();
    std::printf("alice presses Retrieve -> re-executed at both sites\n");
    show_results("  alice", alice);
    show_results("  bob  ", bob);
    std::printf("  (invocations: alice=%llu bob=%llu)\n\n",
                static_cast<unsigned long long>(alice.invocations()),
                static_cast<unsigned long long>(bob.invocations()));

    // Bob narrows the view to author+year — also synchronized.
    bob.select_view("only:author,year");
    network.run_all();
    bob.invoke();
    network.run_all();
    std::printf("bob selects view only:author,year and re-retrieves\n");
    show_results("  alice", alice);
    show_results("  bob  ", bob);

    // Result-form operation: use a result row to instantiate a new query.
    if (!bob.last_result().rows.empty()) {
        bob.instantiate_from_result(0);
        network.run_all();
        std::printf("\nbob instantiates a follow-up query from result row 0: author=\"%s\"\n",
                    alice_app.ui().find(apps::ToriApp::operand_field_path("author"))->text("value").c_str());
    }

    std::printf("\ndatabase evaluations: gmd=%llu uni=%llu (each shared invocation ran once per site)\n",
                static_cast<unsigned long long>(alice.database().queries_executed()),
                static_cast<unsigned long long>(bob.database().queries_executed()));
    return 0;
}
