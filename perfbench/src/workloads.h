// The benchmark's workloads. Each builds its inputs from the seed, measures
// for the requested time, checks every answer, and returns its metrics.
#pragma once

#include "common.h"

namespace perfbench {

Result runAuditLattice(const Options& o);
Result runAuditPoly(const Options& o);
Result runGpddStream(const Options& o);
Result runReferenceCheck(const Options& o);

}  // namespace perfbench
