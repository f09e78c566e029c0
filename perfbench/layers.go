package main

import (
	"strings"
)

// layerOfPackage maps the repository's packages onto the benchmark's
// layers. Packages that only serve one layer join it: the ISA, register
// file and crossbar models are the issue engine's, the RNG and workload
// tables feed stream generation, stats is the simulator's counter block,
// and the functional machine and assembler build replayed programs.
var layerOfPackage = map[string]string{
	"vexsmt/internal/sim":          "sim",
	"vexsmt/internal/stats":        "sim",
	"vexsmt/internal/core":         "core",
	"vexsmt/internal/isa":          "core",
	"vexsmt/internal/regfile":      "core",
	"vexsmt/internal/xbar":         "core",
	"vexsmt/internal/cache":        "cache",
	"vexsmt/internal/bpred":        "bpred",
	"vexsmt/internal/synth":        "synth",
	"vexsmt/internal/rng":          "synth",
	"vexsmt/internal/workload":     "synth",
	"vexsmt/internal/trace":        "replay",
	"vexsmt/internal/wstore":       "replay",
	"vexsmt/internal/vexmach":      "replay",
	"vexsmt/internal/asm":          "replay",
	"vexsmt/internal/experiments":  "sched",
	"vexsmt/pkg/vexsmt/sched":      "sched",
	"vexsmt/pkg/vexsmt":            "schema",
	"vexsmt/pkg/vexsmt/cache":      "rcache",
	"vexsmt/pkg/vexsmt/server":     "server",
	"vexsmt/pkg/vexsmt/shard":      "shard",
	"vexsmt/pkg/vexsmt/resilience": "shard",
	"main":                         "bench", // this benchmark, as the built binary names it
}

// profileLayers lists every bucket a CPU sample can land in, in report
// order. runtime holds stacks with no repository frame that the Go
// runtime owns (garbage collection, scheduling); http holds stacks with no
// repository frame inside net/http (connection reads and writes);
// unattributed holds the rest.
var profileLayers = []string{
	"sim", "core", "cache", "bpred", "synth", "replay", "sched", "schema",
	"rcache", "server", "shard", "http", "bench", "other", "runtime", "unattributed",
}

// packageOf extracts the import path from a profiled function name such
// as "vexsmt/internal/cache.(*Cache).Access".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may contain slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf attributes one sample to a layer: the innermost repository
// frame wins, so library code (encoding/json, crypto/sha256, the
// allocator) is charged to the layer that called it.
func layerOf(stack []string) string {
	sawHTTP := false
	for _, fn := range stack {
		pkg := packageOf(fn)
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "vexsmt/") {
			return "other"
		}
		if strings.HasPrefix(pkg, "net/http") || pkg == "net" {
			sawHTTP = true
		}
	}
	switch {
	case sawHTTP:
		return "http"
	case len(stack) > 0 && packageOf(stack[len(stack)-1]) == "runtime":
		return "runtime"
	}
	return "unattributed"
}

// selfSeconds sums a profile's CPU time per layer.
func selfSeconds(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64, len(profileLayers))
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.ns) / 1e9
	}
	return out
}
