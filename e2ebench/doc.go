// Command e2ebench is the repository's end-to-end benchmark. It boots
// the real sesd and sesrouter binaries on loopback, drives them over
// HTTP with at most two closed-loop clients, checks every answer, and
// reports what a client sees: throughput, write and read latency, CPU
// per step, peak memory, failures and set-up time. A separate traced
// run (-trace 1) splits each write across the layers that serve it by
// replaying the recorded steps through each module's public Go entry
// points in-process.
//
// Three workloads load different layers: edit-warm (incremental
// resolves on large warm sessions of a memory sesd), replicated-commit
// (small edits through sesrouter to three sync=always -replicate-ack 1
// nodes) and cold-create (upload, first resolve and delete of large
// documents on a durable sesd). README.md maps every layer to its
// per-layer metric and to the end-to-end metric it should move.
//
// Run it through run.sh from the repository root, which builds the
// daemons and this program first:
//
//	bash e2ebench/run.sh --workload edit-warm --seed 1 --seconds 20 --trace 0
package main
