/**
 * @file
 * Simulated clock measured in CPU cycles.
 *
 * The entire reproduction runs on simulated time: the VM charges
 * cycles per executed instruction and the cost model charges cycles
 * for syscalls, SGX transitions, crypto, and I/O. The clock converts
 * cycles to wall time at the paper's experimental frequency
 * (3.5 GHz Intel Core i7, paper §9).
 */
#ifndef OCCLUM_BASE_SIM_CLOCK_H
#define OCCLUM_BASE_SIM_CLOCK_H

#include <cstdint>

namespace occlum {

/** Cycle-granular simulated clock. */
class SimClock
{
  public:
    /** CPU frequency used to convert cycles to seconds (paper §9). */
    static constexpr double kFrequencyHz = 3.5e9;

    uint64_t cycles() const { return cycles_; }

    void advance(uint64_t cycles) { cycles_ += cycles; }

    /**
     * Jump to an absolute cycle count, backwards included. Only the
     * SMP scheduler's round barrier may rewind: each simulated core
     * replays its share of a round from the same start time, and the
     * clock is then set to the slowest core's end time, so cores run
     * in parallel in simulated time while the host executes them
     * sequentially and deterministically.
     */
    void set_cycles(uint64_t cycles) { cycles_ = cycles; }

    void reset() { cycles_ = 0; }

    double seconds() const { return cycles_ / kFrequencyHz; }
    double millis() const { return seconds() * 1e3; }
    double micros() const { return seconds() * 1e6; }
    double nanos() const { return seconds() * 1e9; }

    /** Convert a cycle delta to microseconds. */
    static double
    cycles_to_micros(uint64_t cycles)
    {
        return cycles / kFrequencyHz * 1e6;
    }

    static double
    cycles_to_seconds(uint64_t cycles)
    {
        return cycles / kFrequencyHz;
    }

  private:
    uint64_t cycles_ = 0;
};

} // namespace occlum

#endif // OCCLUM_BASE_SIM_CLOCK_H
