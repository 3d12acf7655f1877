package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks the
// binary against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func buildBench(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "cppcbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

var headerRE = regexp.MustCompile(`^(\S+): seed=\d+ .* check=(\S+) digest=(\S+)$`)

// TestSmoke runs every workload of BENCHMARK.json at a small scale,
// untraced and traced, and checks each run reports every metric the
// benchmark declares, with its unit, no failed operation, and outputs
// that match the golden digests.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	exe := buildBench(t)
	spans := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			want := spec.EndToEnd
			if traced == "1" {
				want = spec.PerLayer
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			cmd := exec.CommandContext(ctx, exe, "-workload", w.Name, "-seed", "1", "-seconds", "0.3",
				"-scale", "0.02", "-trace", traced, "-repo", filepath.Join("..", ".."),
				"-spans", filepath.Join(spans, w.Name+".json"))
			out, err := cmd.Output()
			cancel()
			if err != nil {
				t.Fatalf("%s -trace %s: %v\n%s", w.Name, traced, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var header []string
			for _, l := range lines {
				if m := headerRE.FindStringSubmatch(l); m != nil {
					header = m
				}
			}
			if header == nil || header[1] != w.Name || header[2] != "ok" {
				t.Errorf("%s -trace %s: header %q, want check=ok\n%s", w.Name, traced, header, out)
			}
			if !strings.Contains(string(out), "fail_frac") && traced == "0" {
				t.Errorf("%s: no fail_frac line\n%s", w.Name, out)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s -trace %s: last line: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %s: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s -trace %s: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDaemonStopsItsGoroutines runs round 0 of a daemon workload on the
// set-up's daemon, again on a fresh one, and traced on a third, checks
// the three reproduce each other, and that no daemon leaves a goroutine
// behind.
func TestDaemonStopsItsGoroutines(t *testing.T) {
	ctx := context.Background()
	base := runtime.NumGoroutine()
	cfg := config{seed: 1, procs: 2, scale: 0.02, repo: filepath.Join("..", "..")}
	for _, hit := range []bool{false, true} {
		r, err := daemonWorkload(hit)(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var o *outcome
		for _, tr := range []*tracer{nil, nil, newTracer()} {
			rp, err := measure(ctx, r, phase{once: true, tr: tr})
			if err != nil {
				t.Fatal(err)
			}
			if o == nil {
				o = rp
			} else if rp.digest != o.digest {
				t.Errorf("hit=%v: replay digest %.16s, round 0 %.16s", hit, rp.digest, o.digest)
			}
		}
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Fatalf("hit=%v: %d of %d jobs failed: %v", hit, o.failed, o.attempted, o.problems)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, %d at start\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{4, 2}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestRunShFailsWithoutRepository copies only BENCHMARK.json and this
// directory elsewhere: run.sh must exit non-zero without a result line.
func TestRunShFailsWithoutRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	dir := t.TempDir()
	dst := filepath.Join(dir, "cmd", "cppcbench")
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(path)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, path), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "cmd/cppcbench/run.sh", "--workload", "fig-suite", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatal("run.sh succeeded without the repository")
	}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "{") {
			t.Fatalf("run.sh printed a result: %s", sc.Text())
		}
	}
}
