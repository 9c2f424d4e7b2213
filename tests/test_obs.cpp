// Unit tests for the obs metrics layer: counters, gauges, histograms,
// registry snapshots, and the Prometheus text exposition.
#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cosoft/net/sim_network.hpp"
#include "cosoft/obs/metrics.hpp"
#include "cosoft/obs/watchdog.hpp"
#include "cosoft/server/session_manager.hpp"

namespace cosoft::obs {
namespace {

TEST(Counter, IncrementAndReset) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, UpdateMaxIsMonotone) {
    Gauge g;
    g.update_max(10);
    g.update_max(5);
    EXPECT_EQ(g.value(), 10u);
    g.update_max(25);
    EXPECT_EQ(g.value(), 25u);
    g.set(3);
    EXPECT_EQ(g.value(), 3u);
}

TEST(Counter, ConcurrentIncrementsAllLand) {
    Counter c;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i) c.inc();
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Histogram, CountSumAndBuckets) {
    Histogram h{{1.0, 10.0, 100.0}};
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);
    h.observe(500.0);  // overflow bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 555.5);
    const auto cumulative = h.cumulative_buckets();
    ASSERT_EQ(cumulative.size(), 4u);  // 3 bounds + Inf
    EXPECT_EQ(cumulative[0], 1u);
    EXPECT_EQ(cumulative[1], 2u);
    EXPECT_EQ(cumulative[2], 3u);
    EXPECT_EQ(cumulative[3], 4u);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
    Histogram h{{10.0, 20.0, 40.0}};
    for (int i = 0; i < 100; ++i) h.observe(15.0);  // all in (10, 20]
    // Every observation is in the second bucket, so every quantile lands
    // between its bounds.
    const double p50 = h.quantile(0.5);
    EXPECT_GT(p50, 10.0);
    EXPECT_LE(p50, 20.0);
    const double p99 = h.quantile(0.99);
    EXPECT_GT(p99, p50 - 1e-9);
    EXPECT_LE(p99, 20.0);
}

TEST(Histogram, QuantileEmptyIsZeroAndOverflowClamps) {
    Histogram h{{1.0, 2.0}};
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    h.observe(1000.0);
    // The +Inf bucket cannot be interpolated; the estimate clamps to the
    // highest finite bound (the Prometheus convention).
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(Histogram, ExponentialBuckets) {
    const auto bounds = Histogram::exponential_buckets(1.0, 2.0, 5);
    const std::vector<double> expected{1.0, 2.0, 4.0, 8.0, 16.0};
    EXPECT_EQ(bounds, expected);
}

TEST(Registry, SameNameReturnsSameInstrument) {
    Registry r;
    Counter& a = r.counter("x_total");
    Counter& b = r.counter("x_total");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
    Histogram& h1 = r.histogram("h_us", {1.0, 2.0});
    Histogram& h2 = r.histogram("h_us", {99.0});  // bounds ignored on re-registration
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.upper_bounds().size(), 2u);
}

TEST(Registry, SnapshotIsSortedAndComplete) {
    Registry r;
    r.counter("zeta_total").inc(3);
    r.gauge("alpha_peak").set(7);
    r.histogram("mid_us", {1.0}).observe(0.5);
    const auto samples = r.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                               [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; }));
    for (const MetricSample& s : samples) {
        if (s.name == "zeta_total") {
            EXPECT_EQ(s.type, MetricType::kCounter);
            EXPECT_EQ(s.value, 3u);
        } else if (s.name == "alpha_peak") {
            EXPECT_EQ(s.type, MetricType::kGauge);
            EXPECT_EQ(s.value, 7u);
        } else {
            EXPECT_EQ(s.type, MetricType::kHistogram);
            EXPECT_EQ(s.value, 1u);  // observation count
            ASSERT_EQ(s.cumulative.size(), 2u);
            EXPECT_EQ(s.cumulative.back(), 1u);
        }
    }
}

TEST(Registry, PrometheusTextFormat) {
    Registry r;
    r.counter("requests_total").inc(5);
    r.gauge("queue_peak").set(9);
    r.histogram("latency_us", {1.0, 10.0}).observe(4.0);
    const std::string text = r.prometheus_text();
    EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
    EXPECT_NE(text.find("requests_total 5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE queue_peak gauge"), std::string::npos);
    EXPECT_NE(text.find("queue_peak 9"), std::string::npos);
    EXPECT_NE(text.find("# TYPE latency_us histogram"), std::string::npos);
    EXPECT_NE(text.find("latency_us_bucket{le=\"1\"} 0"), std::string::npos);
    EXPECT_NE(text.find("latency_us_bucket{le=\"10\"} 1"), std::string::npos);
    EXPECT_NE(text.find("latency_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
    EXPECT_NE(text.find("latency_us_sum 4"), std::string::npos);
    EXPECT_NE(text.find("latency_us_count 1"), std::string::npos);
}

TEST(Registry, LabelValuesEscapeAndRoundTrip) {
    EXPECT_EQ(escape_label_value("plain"), "plain");
    EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
    EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
    EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
    const std::string name =
        labeled_name("family", {{"k", "v\"w\\x\ny"}, {"plain", "ok"}});
    EXPECT_EQ(name, "family{k=\"v\\\"w\\\\x\\ny\",plain=\"ok\"}");

    // A registry instrument under the labeled name exports as one sample of
    // the base family, HELP/TYPE and all — the nasty value stays escaped.
    Registry r;
    r.set_help("family", "a family");
    r.gauge(name).set(1);
    const std::string text = r.prometheus_text();
    EXPECT_NE(text.find("# HELP family a family"), std::string::npos);
    EXPECT_NE(text.find("# TYPE family gauge"), std::string::npos);
    EXPECT_NE(text.find("family{k=\"v\\\"w\\\\x\\ny\",plain=\"ok\"} 1"), std::string::npos);
}

// Exposition-format conformance: every sample in a full server scrape must
// be preceded by exactly one # HELP and one # TYPE for its family, in that
// order, and sample lines must parse as `name[{labels}] value`.
TEST(Registry, ExpositionConformsToPrometheusTextFormat) {
    server::SessionManager manager;
    manager.set_watchdog(std::make_shared<obs::Watchdog>());
    const std::string text = manager.metrics_exposition();
    ASSERT_FALSE(text.empty());
    ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";

    std::istringstream in{text};
    std::string line;
    std::string current_family;       // family announced by the last HELP/TYPE pair
    std::set<std::string> announced;  // every family, to reject duplicates
    bool expecting_type = false;      // HELP seen, TYPE must come next
    std::size_t samples = 0;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty()) << "blank line in exposition";
        if (line.rfind("# HELP ", 0) == 0) {
            ASSERT_FALSE(expecting_type) << "HELP without TYPE: " << current_family;
            const std::string rest = line.substr(7);
            const std::size_t space = rest.find(' ');
            ASSERT_NE(space, std::string::npos) << line;
            current_family = rest.substr(0, space);
            ASSERT_TRUE(announced.insert(current_family).second)
                << "duplicate HELP for " << current_family;
            expecting_type = true;
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            ASSERT_TRUE(expecting_type) << "TYPE without HELP: " << line;
            const std::string rest = line.substr(7);
            const std::size_t space = rest.find(' ');
            ASSERT_NE(space, std::string::npos) << line;
            EXPECT_EQ(rest.substr(0, space), current_family) << line;
            const std::string kind = rest.substr(space + 1);
            EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram") << line;
            expecting_type = false;
            continue;
        }
        ASSERT_FALSE(expecting_type) << "sample between HELP and TYPE: " << line;
        // Sample: name[{labels}] value — its family (name up to '{', modulo
        // the histogram suffixes) must be the one just announced.
        const std::size_t brace = line.find('{');
        const std::size_t space = line.find(' ', brace == std::string::npos ? 0 : line.find('}'));
        ASSERT_NE(space, std::string::npos) << line;
        std::string base = line.substr(0, std::min(brace, space));
        for (const char* suffix : {"_bucket", "_sum", "_count"}) {
            const std::size_t len = std::strlen(suffix);
            if (base.size() > len && base.compare(base.size() - len, len, suffix) == 0 &&
                current_family == base.substr(0, base.size() - len)) {
                base = base.substr(0, base.size() - len);
                break;
            }
        }
        EXPECT_EQ(base, current_family) << "sample outside its family block: " << line;
        ++samples;
    }
    EXPECT_FALSE(expecting_type) << "exposition ended between HELP and TYPE";
    EXPECT_GT(samples, 20u);
    // The families the monitor plane promises are all present.
    for (const char* family :
         {"cosoft_build_info", "cosoft_uptime_seconds", "cosoft_watchdog_healthy",
          "cosoft_recorder_enabled", "cosoft_server_sessions_active",
          "cosoft_hotpath_allocs_total"}) {
        EXPECT_TRUE(announced.contains(family)) << family;
    }
}

TEST(Registry, ResetZeroesEverything) {
    Registry r;
    r.counter("a_total").inc(2);
    r.gauge("b_peak").update_max(5);
    r.histogram("c_us", {1.0}).observe(3.0);
    r.reset();
    EXPECT_EQ(r.counter("a_total").value(), 0u);
    EXPECT_EQ(r.gauge("b_peak").value(), 0u);
    EXPECT_EQ(r.histogram("c_us", {1.0}).count(), 0u);
}

TEST(Registry, GlobalIsAProcessSingleton) {
    Registry& a = Registry::global();
    Registry& b = Registry::global();
    EXPECT_EQ(&a, &b);
}

TEST(ScopedTimer, RecordsOneObservation) {
    Histogram h{Histogram::exponential_buckets(1.0, 4.0, 10)};
    { const ScopedTimer timer{h}; }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.sum(), 0.0);
}

}  // namespace
}  // namespace cosoft::obs
