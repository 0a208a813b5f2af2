// src/obs/openmetrics: OpenMetrics exposition renderer and its strict
// parser (DESIGN.md §16).  The renderer consumes a MetricsSnapshot — a
// plain value type — so most tests hand-build snapshots or local registries
// and are identical in default-on and GPD_OBS_DISABLED builds; the engine
// end-to-end case expects no tenant gauges when the macros compile out.
#include "obs/openmetrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "service/engine.h"
#include "util/check.h"

namespace gpd::obs {
namespace {

std::string render(const MetricsSnapshot& snap, const Labels& buildInfo = {}) {
  std::ostringstream os;
  renderOpenMetrics(os, snap, buildInfo);
  return os.str();
}

TEST(OpenMetrics, EscapeLabelValueCoversTheThreeEscapes) {
  EXPECT_EQ(escapeLabelValue("plain"), "plain");
  EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(escapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(escapeLabelValue("a\nb"), "a\\nb");
}

TEST(OpenMetrics, RenderParseRoundTrip) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("gpdd_pumps", 41);
  snap.gauges.emplace_back("gpdd_sessions_open", 7);
  MetricsSnapshot::HistogramValue h;
  h.name = "gpdd_pump_nanos";
  h.count = 3;
  h.sum = 1 + 5 + 100;
  h.buckets[1] = 1;   // value 1   → [1,2)
  h.buckets[3] = 1;   // value 5   → [4,8)
  h.buckets[7] = 1;   // value 100 → [64,128)
  snap.histograms.push_back(h);

  const std::string text = render(snap, {{"version", "v1"}, {"obs", "on"}});
  EXPECT_NE(text.find("# EOF\n"), std::string::npos);

  const Exposition exp = parseExposition(text);
  ASSERT_EQ(exp.families.size(), 4u);
  EXPECT_EQ(exp.families[0].type, "counter");
  EXPECT_EQ(exp.value("gpdd_pumps_total"), 41);
  EXPECT_EQ(exp.value("gpdd_sessions_open"), 7);
  EXPECT_EQ(exp.value("gpdd_pump_nanos_sum"), 106);
  EXPECT_EQ(exp.value("gpdd_pump_nanos_count"), 3);
  EXPECT_EQ(exp.value("absent_metric", -1), -1);

  // Build info renders as a single always-1 gauge with one label per field.
  const ExpositionSample* info = exp.find("gpdd_build_info");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->value, 1);
  ASSERT_EQ(info->labels.size(), 2u);
  EXPECT_EQ(info->labels[0].first, "version");
  EXPECT_EQ(info->labels[0].second, "v1");

  // Histogram buckets are cumulative, le = 2^i - 1, and only non-empty
  // buckets render (plus the mandatory +Inf).
  const ExpositionFamily& hist = exp.families.back();
  EXPECT_EQ(hist.type, "histogram");
  ASSERT_EQ(hist.samples.size(), 6u);  // 3 buckets + Inf + sum + count
  EXPECT_EQ(hist.samples[0].labels[0].second, "1");
  EXPECT_EQ(hist.samples[0].value, 1);
  EXPECT_EQ(hist.samples[1].labels[0].second, "7");
  EXPECT_EQ(hist.samples[1].value, 2);
  EXPECT_EQ(hist.samples[2].labels[0].second, "127");
  EXPECT_EQ(hist.samples[2].value, 3);
  EXPECT_EQ(hist.samples[3].labels[0].second, "+Inf");
  EXPECT_EQ(hist.samples[3].value, 3);
}

// Tenant names that are prefixes of one another or contain a field name.
const char* const kTenants[] = {"t1", "t10", "x_sheds", "a.b", "big_co"};

TEST(OpenMetrics, TenantGaugesReshapeIntoLabeledFamilies) {
  Registry reg;
  std::int64_t v = 0;
  for (const char* t : kTenants) {
    reg.gauge("gpdd_tenant_sessions", {{"tenant", t}}).set(++v);
    reg.gauge("gpdd_tenant_ev_bytes", {{"tenant", t}}).set(100 * v);
  }
  reg.gauge("gpdd_tenant_sessions", {{"tenant", "q\"uote"}}).set(7);
  reg.gauge("gpdd_mem_level").set(1);
  // One instrument per (name, label set).
  EXPECT_EQ(&reg.gauge("gpdd_tenant_sessions", {{"tenant", "t1"}}),
            &reg.gauge("gpdd_tenant_sessions", {{"tenant", "t1"}}));
  EXPECT_NE(&reg.gauge("gpdd_tenant_sessions", {{"tenant", "t1"}}),
            &reg.gauge("gpdd_tenant_sessions", {{"tenant", "t10"}}));

  const Exposition exp = parseExposition(render(reg.snapshot()));
  const ExpositionSample* plain = exp.find("gpdd_mem_level");
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->labels.empty());

  // One family per name; samples sorted by tenant name.
  std::vector<std::string> order;
  int families = 0;
  for (const ExpositionFamily& fam : exp.families) {
    if (fam.name != "gpdd_tenant_sessions") continue;
    ++families;
    EXPECT_EQ(fam.type, "gauge");
    for (const ExpositionSample& s : fam.samples) {
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels[0].first, "tenant");
      order.push_back(s.labels[0].second);
    }
  }
  EXPECT_EQ(families, 1);
  EXPECT_EQ(order, (std::vector<std::string>{"a.b", "big_co", "q\"uote", "t1",
                                             "t10", "x_sheds"}));
  EXPECT_EQ(exp.find("gpdd_tenant_sessions")->value, 4);  // a.b
  EXPECT_EQ(exp.find("gpdd_tenant_ev_bytes")->value, 400);
}

// Engine → publishTenantMetrics → snapshot → exposition → parser: every
// per-tenant sample equals Engine::tenantStats(), no flat per-tenant name
// survives, and samples follow the STATS "tenants" order.
TEST(OpenMetrics, EngineTenantGaugesMatchTenantStats) {
  service::EngineOptions opt;
  opt.sessionMaxCombinations = 3;
  service::Engine eng(opt);
  for (const char* t : kTenants) {
    const std::string ts = t;
    eng.submit("OPEN " + ts + " s0 2");
    eng.submit("EV " + ts + " s0 0 0 1 0");
  }
  eng.submit("OPEN x_sheds s1 2");
  for (int seq = 0; seq < 4; ++seq) {  // the 4th delivery is over budget
    eng.submit("EV x_sheds s1 0 " + std::to_string(seq) + " " +
               std::to_string(seq + 1) + " 0");
  }
  eng.submit("CLOSE t10 s0");
  std::vector<service::Response> out;
  eng.pump(out, nullptr);

  eng.publishTenantMetrics();
  const Exposition exp = parseExposition(render(registry().snapshot()));
  const auto& stats = eng.tenantStats();
  const std::string json = eng.statsJson();
  std::vector<std::string> statsOrder(std::begin(kTenants), std::end(kTenants));
  std::sort(statsOrder.begin(), statsOrder.end(),
            [&](const std::string& a, const std::string& b) {
              const std::size_t at = json.find("\"tenants\":{");
              return json.find('"' + a + "\":{", at) <
                     json.find('"' + b + "\":{", at);
            });

  std::map<std::string, std::vector<std::string>> orderByFamily;
  for (const ExpositionFamily& fam : exp.families) {
    if (fam.name.rfind("gpdd_tenant_", 0) != 0) continue;
    for (const ExpositionSample& s : fam.samples) {
      EXPECT_EQ(s.name, fam.name) << "flat per-tenant sample " << s.name;
      ASSERT_EQ(s.labels.size(), 1u) << s.name;
      EXPECT_EQ(s.labels[0].first, "tenant");
      const std::string& tenant = s.labels[0].second;
      ASSERT_EQ(stats.count(tenant), 1u) << tenant;
      const service::TenantStats& t = stats.at(tenant);
      double want = -1;
      if (s.name == "gpdd_tenant_sessions") {
        want = static_cast<double>(t.sessionsOpened - t.sessionsClosed);
      } else if (s.name == "gpdd_tenant_ev_bytes") {
        want = static_cast<double>(t.evBytes);
      } else if (s.name == "gpdd_tenant_sheds") {
        want = static_cast<double>(t.shedMem + t.shedBudget + t.shedIdle);
      } else if (s.name == "gpdd_tenant_budget_exhausted") {
        want = static_cast<double>(t.shedBudget);
      }
      EXPECT_EQ(s.value, want) << s.name << " " << tenant;
      orderByFamily[fam.name].push_back(tenant);
    }
  }
  for (const char* t : kTenants) {
    for (const char* field :
         {"sessions", "ev_bytes", "sheds", "budget_exhausted"}) {
      const std::string flat =
          std::string("gpdd_tenant_") + t + "_" + field;
      EXPECT_EQ(exp.find(flat), nullptr) << flat;
    }
  }
#ifndef GPD_OBS_DISABLED
  EXPECT_EQ(orderByFamily.size(), 4u);
  for (const auto& [family, order] : orderByFamily) {
    EXPECT_EQ(order, statsOrder) << family;
  }
  EXPECT_EQ(stats.at("x_sheds").shedBudget, 1u);
  EXPECT_EQ(stats.at("t10").sessionsClosed, 1u);
#else
  // Kill switch: publishTenantMetrics compiles out.
  EXPECT_TRUE(orderByFamily.empty());
#endif
}

TEST(OpenMetrics, ParserAcceptsEscapedLabelValues) {
  const std::string text =
      "# TYPE t gauge\n"
      "t{tenant=\"a\\\\b\\\"c\\nd\"} 5\n"
      "# EOF\n";
  const Exposition exp = parseExposition(text);
  const ExpositionSample* s = exp.find("t");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->labels[0].second, "a\\b\"c\nd");
}

TEST(OpenMetrics, ParserRejectsMalformedInput) {
  // Missing # EOF.
  EXPECT_THROW(parseExposition("# TYPE a gauge\na 1\n"), InputError);
  // Content after # EOF.
  EXPECT_THROW(parseExposition("# EOF\nx 1\n"), InputError);
  // Sample before any # TYPE.
  EXPECT_THROW(parseExposition("a 1\n# EOF\n"), InputError);
  // Sample outside its announced family.
  EXPECT_THROW(
      parseExposition("# TYPE a gauge\nb 1\n# EOF\n"), InputError);
  // Unparseable value.
  EXPECT_THROW(
      parseExposition("# TYPE a gauge\na one\n# EOF\n"), InputError);
  // Unterminated label value.
  EXPECT_THROW(
      parseExposition("# TYPE a gauge\na{l=\"x} 1\n# EOF\n"), InputError);
  // Bad escape.
  EXPECT_THROW(
      parseExposition("# TYPE a gauge\na{l=\"\\t\"} 1\n# EOF\n"),
      InputError);
  // Unknown family type.
  EXPECT_THROW(parseExposition("# TYPE a summary\n# EOF\n"), InputError);
  // The error message carries the line number.
  try {
    parseExposition("# TYPE a gauge\nb 1\n# EOF\n");
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(OpenMetrics, HelpAndUnitCommentsAreIgnored) {
  const std::string text =
      "# HELP a free text here\n"
      "# TYPE a counter\n"
      "# UNIT a seconds\n"
      "a_total 2\n"
      "# EOF\n";
  EXPECT_EQ(parseExposition(text).value("a_total"), 2);
}

}  // namespace
}  // namespace gpd::obs
