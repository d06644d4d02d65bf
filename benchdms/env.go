package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"strings"
	"time"
)

// environment records what the figures depend on besides the code.
func environment(o *options, reps []*repeat) map[string]any {
	env := map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"gomaxprocs_env":     os.Getenv("GOMAXPROCS"),
		"cpu_model":          cpuModel(),
		"go_version":         runtime.Version(),
		"seed":               o.seed,
		"seconds":            o.seconds,
		"repeats":            o.repeats,
		"phase_seconds":      o.phaseSeconds(),
		"clients":            clients,
		"train_poll_period":  pollPeriod.String(),
		"started_at":         time.Now().UTC().Format(time.RFC3339),
		"cpu_calibration_ms": calibrate(),
	}
	if len(reps) > 0 {
		r := reps[len(reps)-1]
		env["dmsd_go_version"] = r.goVersion
		env["dmsd_revision"] = r.dmsdVersion
		env["dmsd_flags"] = strings.Join(r.dmsdFlags, " ")
		env["dmsd_flags_untraced"] = strings.Join(reps[0].dmsdFlags, " ")
	}
	return env
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate times a fixed single-core job (SHA-256 over 64 MiB) once the
// daemons have stopped. A machine shared with other tenants can change
// speed by tens of percent between runs; this figure shows the speed a run
// saw.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	start := time.Now()
	for range 64 {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
