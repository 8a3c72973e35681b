/**
 * @file
 * The four perfbench workloads and the harness self-check. Each
 * workload pass builds its programs, constructs fresh systems (so
 * every timed phase starts with cold block and superblock caches),
 * stages its seeded inputs, runs the timed phase under a LegMeter per
 * system, and checks the programs' outputs against references it
 * computes itself. See README.md for why each workload exists.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Workload {
    const char *name;
    PassOutput (*pass)(uint64_t seed, bool traced);
};

/** Every workload, in README order. */
const std::vector<Workload> &all_workloads();

/**
 * Drive the systems with the figure benches' fixed inputs and compare
 * against their committed simulated rows. Prints one line per check;
 * returns true when all match.
 */
bool self_check();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
