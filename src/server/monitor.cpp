#include "cosoft/server/monitor.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "cosoft/obs/flight_recorder.hpp"
#include "cosoft/protocol/messages.hpp"

namespace cosoft::server {

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

}  // namespace

Monitor::Monitor(SessionManager& manager, MonitorOptions options) : manager_(manager) {
    auto& recorder = obs::FlightRecorder::instance();
    if (!options.incident_dir.empty()) recorder.set_incident_dir(options.incident_dir);

    watchdog_ = std::make_shared<obs::Watchdog>(options.watchdog);
    manager_.set_watchdog(watchdog_);
    if (const auto& reactor = manager_.reactor()) reactor->set_watchdog(watchdog_);

    // Incident context: the same exposition /metrics serves, plus the
    // verdict that (usually) triggered the dump. Captures `this`, so the
    // destructor clears the provider before members die.
    recorder.set_context_provider([this] {
        std::string ctx = manager_.metrics_exposition();
        const obs::Watchdog::Verdict verdict = watchdog_->verdict();
        ctx += verdict.healthy ? "watchdog: healthy\n" : "watchdog: UNHEALTHY\n";
        for (const std::string& complaint : verdict.complaints) {
            ctx += "watchdog: ";
            ctx += complaint;
            ctx += '\n';
        }
        return ctx;
    });

    if (options.start_watchdog) watchdog_->start();

    if (options.enable_http) {
        auto server = net::HttpServer::create(
            options.http_port,
            [this](const net::HttpServer::Request& request) { return handle(request); });
        if (server.is_ok()) {
            http_ = std::move(server).value();
        } else {
            http_error_ = server.error().message;
        }
    }
}

Monitor::~Monitor() {
    // Stop the HTTP plane first (its handler walks the manager), then the
    // scan thread. The watchdog object itself stays alive through the
    // manager's and reactor's shared_ptrs, so progress sources cached by
    // in-flight dispatch batches never dangle.
    http_.reset();
    obs::FlightRecorder::instance().set_context_provider(nullptr);
    watchdog_->stop();
}

net::HttpServer::Response Monitor::handle(const net::HttpServer::Request& request) {
    net::HttpServer::Response response;
    if (request.path == "/metrics") {
        response.content_type = "text/plain; version=0.0.4; charset=utf-8";
        response.body = manager_.metrics_exposition();
        return response;
    }
    if (request.path == "/healthz") {
        const obs::Watchdog::Verdict verdict = watchdog_->verdict();
        if (verdict.healthy) {
            response.body = "ok\n";
        } else {
            response.status = 503;
            response.body = "unhealthy\n";
            for (const std::string& complaint : verdict.complaints) {
                response.body += complaint;
                response.body += '\n';
            }
        }
        return response;
    }
    if (request.path == "/incident") {
        const std::string path =
            obs::FlightRecorder::instance().dump("http-request", /*culprit=*/"");
        if (path.empty()) {
            response.status = 500;
            response.body = "incident dump failed\n";
            return response;
        }
        std::string body = read_file(path);
        if (body.empty()) {
            response.status = 500;
            response.body = "incident file unreadable: " + path + "\n";
            return response;
        }
        response.content_type = "application/x-ndjson";
        response.body = std::move(body);
        return response;
    }
    if (request.path == "/status") {
        // Session and connection tables. Built from the per-strand snapshots
        // and atomic channel counters under the manager mutex only — never
        // waits on a dispatch strand.
        const ServerStatus status = manager_.status();
        std::string body;
        char line[256];
        std::snprintf(line, sizeof line, "-- sessions (%zu) --\n", status.sessions.size());
        body += line;
        std::snprintf(line, sizeof line, "%-20s %5s %5s %7s %12s %8s\n", "session", "conns", "reg",
                      "locks", "broadcasts", "couples");
        body += line;
        for (const SessionRow& s : status.sessions) {
            std::snprintf(line, sizeof line, "%-20s %5u %5u %7llu %12llu %8llu\n",
                          s.name.empty() ? "(default)" : s.name.c_str(), s.connections, s.registered,
                          static_cast<unsigned long long>(s.locks_held),
                          static_cast<unsigned long long>(s.broadcasts),
                          static_cast<unsigned long long>(s.couples));
            body += line;
        }
        std::snprintf(line, sizeof line, "\n-- connections (%zu) --\n", status.connections.size());
        body += line;
        std::snprintf(line, sizeof line, "%-9s %-12s %-16s %-12s %-4s %10s %10s %12s %12s %6s %10s %7s\n",
                      "instance", "user", "app", "session", "reg", "fr_sent", "fr_recv", "bytes_sent",
                      "bytes_recv", "bkpr", "peak_bytes", "queued");
        body += line;
        for (const ConnectionRow& c : status.connections) {
            std::snprintf(line, sizeof line,
                          "%-9u %-12s %-16s %-12s %-4s %10llu %10llu %12llu %12llu %6llu %10llu %7llu\n",
                          c.instance, c.user_name.empty() ? "-" : c.user_name.c_str(),
                          c.app_name.empty() ? "-" : c.app_name.c_str(),
                          c.registered ? (c.session.empty() ? "(default)" : c.session.c_str()) : "-",
                          c.registered ? "yes" : "no", static_cast<unsigned long long>(c.frames_sent),
                          static_cast<unsigned long long>(c.frames_received),
                          static_cast<unsigned long long>(c.bytes_sent),
                          static_cast<unsigned long long>(c.bytes_received),
                          static_cast<unsigned long long>(c.backpressure_events),
                          static_cast<unsigned long long>(c.send_queue_peak_bytes),
                          static_cast<unsigned long long>(c.queued_frames));
            body += line;
        }
        response.body = std::move(body);
        return response;
    }
    if (request.path == "/journal") {
        // Recent durable-journal records per session (seq, record type,
        // origin instance, decoded message name, bytes on disk), read from
        // each session's journal file — never touches a dispatch strand.
        const auto tails = manager_.journal_tails();
        if (tails.empty()) {
            response.body = "no journaled sessions\n";
            return response;
        }
        std::string body;
        char line[160];
        for (const auto& [name, entries] : tails) {
            std::snprintf(line, sizeof line, "-- journal: %s (%zu recent) --\n",
                          name.empty() ? "(default)" : name.c_str(), entries.size());
            body += line;
            std::snprintf(line, sizeof line, "%8s %-9s %7s %-20s %8s\n", "seq", "type", "origin",
                          "message", "bytes");
            body += line;
            for (const SessionJournal::Record& e : entries) {
                using Type = SessionJournal::RecordType;
                const char* type = e.type == Type::kSnapshot ? "snapshot" : e.type == Type::kDetach ? "detach" : "frame";
                std::string message = e.type == Type::kSnapshot ? "-" : "Detach";
                if (e.type == Type::kFrame) {
                    const auto decoded = protocol::decode_message(e.body);
                    message = decoded ? protocol::message_name(decoded.value()) : "?";
                }
                std::snprintf(line, sizeof line, "%8llu %-9s %7u %-20s %8zu\n",
                              static_cast<unsigned long long>(e.seq), type, e.origin, message.c_str(), e.bytes);
                body += line;
            }
        }
        response.body = std::move(body);
        return response;
    }
    if (request.path == "/") {
        response.body =
            "cosoft monitor endpoints:\n"
            "  /metrics   Prometheus exposition\n"
            "  /healthz   watchdog verdict (200 ok | 503 + complaints)\n"
            "  /incident  flight-recorder dump-and-fetch (JSONL)\n"
            "  /status    session and connection tables\n"
            "  /journal   durable session-journal tails (seq, type, message)\n";
        return response;
    }
    response.status = 404;
    response.body = "not found\n";
    return response;
}

}  // namespace cosoft::server
