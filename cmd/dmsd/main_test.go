package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
)

// mainArgsEnv, when set, makes the test binary run dmsd's main with these
// arguments instead of the tests, so a test can start the daemon exactly
// as shipped — flag defaults included — as a child process.
const mainArgsEnv = "DMSD_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"dmsd"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// startDaemon runs dmsd with args on a free local port and returns its
// address once /healthz answers; the daemon is stopped with SIGTERM at
// cleanup.
func startDaemon(t *testing.T, args ...string) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	var stderr strings.Builder
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(append([]string{"-addr", addr}, args...), " "))
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	})
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + dmsapi.PathHealth)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return addr
			}
		}
	}
	t.Fatalf("dmsd did not come up on %s; stderr:\n%s", addr, stderr.String())
	return ""
}

// TestDefaultsRetainErroredRequests checks that a daemon started with
// default flags keeps the span tree of a failed request: the trace ring
// is on out of the box, and /debug/slowz, a view of the same ring, too.
func TestDefaultsRetainErroredRequests(t *testing.T) {
	addr := startDaemon(t)
	resp, err := http.Post("http://"+addr+dmsapi.PathCertainty, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed certainty: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + dmsapi.PathTraces + "?error=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s?error=true: status %d, want 200", dmsapi.PathTraces, resp.StatusCode)
	}
	var tracez dmsapi.TracezResponse
	if err := json.NewDecoder(resp.Body).Decode(&tracez); err != nil {
		t.Fatal(err)
	}
	if len(tracez.Traces) != 1 || tracez.Traces[0].Op != "data.certainty" || tracez.Traces[0].Error == "" {
		t.Fatalf("errored request not retained: %+v", tracez.Traces)
	}

	slow, err := http.Get("http://" + addr + dmsapi.PathSlow)
	if err != nil {
		t.Fatal(err)
	}
	slow.Body.Close()
	if slow.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d, want 200", dmsapi.PathSlow, slow.StatusCode)
	}
}
