// Package shard executes an experiment grid across multiple backends —
// in-process services or remote vexsmtd daemons — and assembles the
// pieces back into one canonical ResultSet.
//
// The unit of scheduling is a single grid cell, not a pre-partitioned
// shard: the Coordinator resolves a Plan's cells (Service.PlanCells) and
// hands them to the cell scheduler in pkg/vexsmt/sched, which deals them
// across the healthy backends' queues, lets idle backends steal queued
// cells from stragglers, and retries transiently failed cells on backends
// that have not yet failed them. Because every cell derives its seed from
// workload identity alone and cached results are byte-identical to
// simulated ones, none of that — placement, stealing, failover, cache
// hits — can change results: a Coordinator.Collect is byte-identical
// (after canonical encoding) to a single-process Service.Collect of the
// same plan, seed and scale.
package shard

import (
	"context"

	"vexsmt/pkg/vexsmt"
)

// Health is a backend's placement signal: how much simulation capacity it
// has, how much is in use, the simulation defaults it would apply, and the
// results schema it speaks. Coordinators size a backend's worker count
// from its free capacity and skip backends speaking a foreign schema.
type Health struct {
	Capacity      int
	Running       int
	Scale         int64
	Seed          uint64
	SchemaVersion int
}

// Job is one unit of backend work: the cells to simulate (one, under the
// cell-scheduling coordinator, but the Backend contract allows any
// number) and the seed/scale every backend must run them under.
// Techniques, when non-empty, is the comma-joined technique set the
// results' meta must carry (RunMeta.Techniques) — backends check it up
// front so a mismatch fails in milliseconds instead of after simulating.
// CacheOff asks the backend to bypass its result cache for this job
// (remote backends forward it as the submit request's cache=off; the
// in-process backend's cache policy is fixed at service construction and
// the flag is ignored there). Progress, when non-nil, is called once per
// completed cell, from the goroutine running the job — useful to callers
// driving a Backend directly with multi-cell jobs; the cell-scheduling
// Coordinator leaves it nil and derives progress from deliveries instead.
type Job struct {
	Cells      []vexsmt.CellSpec
	Scale      int64
	Seed       uint64
	Techniques string
	CacheOff   bool
	Progress   func(vexsmt.CellResult)
}

// Backend runs jobs. Implementations must honor the job's seed and scale
// exactly (erroring out rather than substituting their own), return sorted
// ResultSets whose meta matches what a Service at that seed/scale would
// stamp, and abort promptly when ctx is cancelled — the HTTP backend, for
// example, hangs up its one-shot submission, and the vexsmtd cancels the
// plan tied to that request. An error
// wrapped with sched.Permanent marks a deterministic simulation failure
// that every backend would reproduce; any other error is the backend's
// fault and the scheduler retries the job elsewhere.
type Backend interface {
	// Name identifies the backend in logs and errors.
	Name() string
	// Health reports the backend's placement signal.
	Health(ctx context.Context) (Health, error)
	// Run simulates one job to completion and returns its results.
	Run(ctx context.Context, job Job) (*vexsmt.ResultSet, error)
}
