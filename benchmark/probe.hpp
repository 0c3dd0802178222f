// Host-speed probe.
//
// The benchmark host is a shared VM whose speed drifts by up to 2x for
// minutes at a time as its neighbours' load changes; repeating rounds
// inside one run cannot average that out. So before every round bsp-bench
// times a fixed amount of integer work, on as many threads as the round
// simulates on, and scales the round's host times by
// kProbeReferenceSeconds / that time: the time the round would have taken
// on a host where the probe takes its reference time. The probe is the
// benchmark's own code, so no change to the simulator can move it.
//
// Of the probes tried (pointer chasing in 16 KiB to 64 MiB tables, branchy
// table lookups, page faults, a short simulation, a Python loop), this
// ALU-bound one followed the simulator's slow stretches best.
#pragma once

namespace bench {

// About the probe's time on an idle 4-vCPU host of the kind the benchmark
// was calibrated on, so scaled times read close to unscaled ones there.
constexpr double kProbeReferenceSeconds = 0.010;

// Seconds `threads` threads take to do `threads` units of the probe's work.
// The threads take the work in chunks, so a slow thread's share moves to the
// others, as in the workloads' thread pools.
double probe_host(unsigned threads);

}  // namespace bench
