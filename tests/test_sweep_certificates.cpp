// Certificate-pipeline characterization: the exact certificates a sweep's
// analysis cache emits, keyed and ordered as `wormnet-sweep --certify-out`
// writes them, plus the cache's hit/miss counts.  Two grids cover every
// binding kind a certificate can carry:
//   - a rollback-guarded killch x west-first ramp on mesh:4x4:2 emits the
//     pristine pair, its fault-degraded epoch, every transition union and
//     every union under the fault mask (composed epochs);
//   - e-cube -> negative-first on mesh:2x2:1 emits a refuted transition
//     union (the CI grid's refuted certificate).
// Each line of tests/golden/sweep_certificates.jsonl is one record:
// {"key":...,"certificate":<certificate JSON, one line>}, and each grid
// ends with {"cache_hits":H,"cache_misses":M}.  The bytes must not depend
// on the worker count.  Regenerate with:
//   WORMNET_UPDATE_GOLDEN=1 ./test_sweep_certificates
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "wormnet/audit/check.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace wormnet::exp {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

SweepOutcome run_grid(const std::string& topo, const std::string& fault,
                      const std::string& reconfig, bool rollback,
                      std::size_t threads) {
  SweepSpec spec;
  spec.topologies = {topo};
  spec.routings = {"e-cube"};
  spec.fault_plans = {fault};
  spec.reconfig_plans = {reconfig};
  spec.loads = {0.1};
  spec.base.warmup_cycles = 50;
  spec.base.measure_cycles = 200;
  spec.base.drain_cycles = 2000;

  RunnerOptions options;
  options.threads = threads;
  options.certify = true;
  options.rollback = rollback;
  return run_sweep(spec, options);
}

/// Certificate JSON is pretty-printed; JSON strings never hold a raw
/// newline, so dropping each newline with the indentation after it yields
/// the same document on one line.
std::string one_line(const std::string& json) {
  std::string out;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '\n') {
      out += json[i];
      continue;
    }
    while (i + 1 < json.size() && json[i + 1] == ' ') ++i;
  }
  return out;
}

std::string render(const SweepOutcome& outcome) {
  std::ostringstream os;
  for (const CertificateRecord& record : outcome.certificates) {
    os << "{\"key\":\"" << record.key << "\",\"certificate\":"
       << one_line(record.certificate->to_json()) << "}\n";
  }
  os << "{\"cache_hits\":" << outcome.cache_hits
     << ",\"cache_misses\":" << outcome.cache_misses << "}\n";
  return os.str();
}

std::string render_all(std::size_t threads) {
  return render(run_grid("mesh:4x4:2", "killch:25@350",
                         "ramp:west-first/4/100@300", true, threads)) +
         render(run_grid("mesh:2x2:1", "none", "switch:negative-first@300",
                         false, threads));
}

TEST(SweepCertificates, ByteIdenticalToGoldenAtAnyThreadCount) {
  const std::string inline_run = render_all(1);
  EXPECT_EQ(render_all(4), inline_run);

  const std::string path =
      std::string(WORMNET_GOLDEN_DIR) + "/sweep_certificates.jsonl";
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << inline_run;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream file(path, std::ios::binary);
  std::ostringstream expected;
  expected << file.rdbuf();
  ASSERT_FALSE(expected.str().empty())
      << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
  EXPECT_EQ(inline_run, expected.str()) << "golden drift in " << path;
}

TEST(SweepCertificates, CoversEveryBindingKind) {
  const SweepOutcome outcome = run_grid(
      "mesh:4x4:2", "killch:25@350", "ramp:west-first/4/100@300", true, 1);
  bool pristine = false;
  bool degraded = false;
  bool transition = false;
  bool composed = false;
  for (const CertificateRecord& record : outcome.certificates) {
    const audit::Certificate& cert = *record.certificate;
    const bool masked = !cert.fault_mask.empty();
    if (cert.transition.empty()) {
      (masked ? degraded : pristine) = true;
    } else {
      (masked ? composed : transition) = true;
    }
  }
  EXPECT_TRUE(pristine);
  EXPECT_TRUE(degraded);
  EXPECT_TRUE(transition);
  EXPECT_TRUE(composed);
}

TEST(SweepCertificates, EveryRecordAuditsAgainstItsBinding) {
  for (const SweepOutcome& outcome :
       {run_grid("mesh:4x4:2", "killch:25@350", "ramp:west-first/4/100@300",
                 true, 1),
        run_grid("mesh:2x2:1", "none", "switch:negative-first@300", false,
                 1)}) {
    for (const CertificateRecord& record : outcome.certificates) {
      const audit::Certificate& cert = *record.certificate;
      const topology::Topology topo = core::make_topology(cert.topology);
      const auto relation = reconfig::make_bound_relation(
          topo, cert.routing, cert.transition, cert.fault_mask);
      const audit::AuditResult result = audit::check(topo, *relation, cert);
      EXPECT_TRUE(result.ok()) << record.key << ": " << result.detail;
      if (cert.transition.empty() || cert.fault_mask.empty()) continue;
      // A composed certificate rebound without its mask speaks about a
      // different relation, and the auditor must say so.
      const auto unmasked = reconfig::make_bound_relation(
          topo, cert.routing, cert.transition, "");
      EXPECT_FALSE(audit::check(topo, *unmasked, cert).ok()) << record.key;
    }
  }
}

TEST(SweepCertificates, BindingRefusesMalformedFields) {
  const topology::Topology topo = core::make_topology("mesh:2x2:1");
  EXPECT_THROW((void)reconfig::make_bound_relation(topo, "no-such", "", ""),
               std::invalid_argument);
  EXPECT_THROW(
      (void)reconfig::make_bound_relation(topo, "e-cube", "e-cube>", ""),
      std::invalid_argument);
  EXPECT_THROW((void)reconfig::make_bound_relation(topo, "e-cube", "", "zz"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)reconfig::make_bound_relation(topo, "e-cube", "", "fffff"),
      std::invalid_argument);
}

}  // namespace
}  // namespace wormnet::exp
