// The COSOFT classroom scenario (§4): a teacher on the electronic blackboard
// and three students on local workstations.
//
//   - students work privately on an exercise;
//   - one student requests help (CoSendCommand, buffered at the teacher);
//   - the teacher pulls that student's work into the public board area
//     (synchronization by state) and couples it for live discussion
//     (synchronization by action);
//   - the teacher corrects the answer publicly — the student's own
//     environment updates;
//   - the discussion ends; the board keeps its content; undo restores the
//     student's pre-correction answer from the server's historical UI states.
//
// Run: ./classroom
#include <cstdio>

#include "cosoft/apps/classroom.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/server/session_manager.hpp"

using namespace cosoft;

int main() {
    std::printf("== COSOFT classroom: teacher liveboard + 3 student workstations ==\n\n");

    net::SimNetwork network;
    server::SessionManager manager;
    server::CoSession& server = manager.default_session();  // the coupling session every app joins
    const net::PipeConfig wire{.latency = 3 * sim::kMillisecond};

    const auto attach = [&](client::CoApp& app) {
        auto [client_end, server_end] = network.make_pipe(wire);
        manager.attach(server_end);
        app.connect(client_end);
    };

    client::CoApp teacher_app{"liveboard", "hoppe", 1};
    attach(teacher_app);
    apps::TeacherApp teacher{teacher_app};

    client::CoApp s1_app{"exercise", "nelson", 11};
    client::CoApp s2_app{"exercise", "frank", 12};
    client::CoApp s3_app{"exercise", "jian", 13};
    attach(s1_app);
    attach(s2_app);
    attach(s3_app);
    apps::StudentApp s1{s1_app, "Approximate sqrt(2)"};
    apps::StudentApp s2{s2_app, "Approximate sqrt(2)"};
    apps::StudentApp s3{s3_app, "Approximate sqrt(2)"};
    network.run_all();

    teacher.present_slide("lesson-02-square-roots.png");
    network.run_all();
    std::printf("teacher presents: %s\n\n", teacher_app.ui().find(apps::TeacherApp::kSlide)->text("source").c_str());

    // Students work independently — nothing is coupled yet.
    s1.answer("x = 1.4");
    s2.answer("x = 1.41421");
    s3.answer("x = 2/sqrt(2)");
    s1.sketch("newton-iteration(x0=1)");
    network.run_all();
    std::printf("students answered privately: \"%s\" | \"%s\" | \"%s\"\n\n",
                s1_app.ui().find(apps::StudentApp::kAnswer)->text("value").c_str(),
                s2_app.ui().find(apps::StudentApp::kAnswer)->text("value").c_str(),
                s3_app.ui().find(apps::StudentApp::kAnswer)->text("value").c_str());

    // Student 1 asks for help; the message is buffered at the teacher.
    s1.request_help("Is one decimal digit enough?");
    network.run_all();
    for (const apps::HelpRequest& req : teacher.requests()) {
        std::printf("teacher inbox: instance %u asks: \"%s\"\n", req.from, req.note.c_str());
    }

    // The teacher opens a public discussion of student 1's work: state copy
    // into the board's public area, then live coupling of answer + scratch.
    teacher.begin_public_discussion(s1_app.instance());
    network.run_all();
    std::printf("\npublic area now shows: \"%s\" (+%zu scratch strokes)\n",
                teacher_app.ui().find(apps::TeacherApp::kPublicAnswer)->text("value").c_str(),
                teacher_app.ui().find(apps::TeacherApp::kPublicScratch)->text_list("strokes").size());

    // The teacher corrects the answer on the board; the correction is
    // re-executed in the student's environment.
    teacher_app.emit(apps::TeacherApp::kPublicAnswer,
                     teacher_app.ui()
                         .find(apps::TeacherApp::kPublicAnswer)
                         ->make_event(toolkit::EventType::kValueChanged, std::string{"x = 1.41 (2 digits)"}));
    network.run_all();
    std::printf("teacher corrects on the board -> student sees: \"%s\"\n",
                s1_app.ui().find(apps::StudentApp::kAnswer)->text("value").c_str());

    // Meanwhile the un-discussed students remain untouched.
    std::printf("other students unaffected: \"%s\" | \"%s\"\n",
                s2_app.ui().find(apps::StudentApp::kAnswer)->text("value").c_str(),
                s3_app.ui().find(apps::StudentApp::kAnswer)->text("value").c_str());

    teacher.end_public_discussion();
    network.run_all();

    // After decoupling, the board keeps the discussed state while the
    // student continues privately.
    s1.answer("x = 1.41421356");
    network.run_all();
    std::printf("\nafter decoupling: board=\"%s\", student=\"%s\"\n",
                teacher_app.ui().find(apps::TeacherApp::kPublicAnswer)->text("value").c_str(),
                s1_app.ui().find(apps::StudentApp::kAnswer)->text("value").c_str());

    // Indirect coupling demo (§4): couple only the parameter sliders of
    // students 2 and 3; each simulation re-renders locally.
    s2_app.couple(apps::StudentApp::kParam, s3_app.ref(apps::StudentApp::kParam));
    network.run_all();
    s2.set_parameter(3.0);
    network.run_all();
    std::printf("\nindirect coupling: param slider coupled, simulations re-rendered locally\n");
    std::printf("  s2 renders=%llu strokes=%zu | s3 renders=%llu strokes=%zu (identical content: %s)\n",
                static_cast<unsigned long long>(s2.simulation_renders()),
                s2_app.ui().find(apps::StudentApp::kSimulation)->text_list("strokes").size(),
                static_cast<unsigned long long>(s3.simulation_renders()),
                s3_app.ui().find(apps::StudentApp::kSimulation)->text_list("strokes").size(),
                s2_app.ui().find(apps::StudentApp::kSimulation)->text_list("strokes") ==
                        s3_app.ui().find(apps::StudentApp::kSimulation)->text_list("strokes")
                    ? "yes"
                    : "no");

    std::printf("\nserver: %llu group updates, %llu states applied, %llu events broadcast\n",
                static_cast<unsigned long long>(server.stats().group_updates),
                static_cast<unsigned long long>(server.stats().states_applied),
                static_cast<unsigned long long>(server.stats().events_broadcast));
    return 0;
}
