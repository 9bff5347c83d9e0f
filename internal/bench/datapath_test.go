package bench

import (
	"os"
	"strconv"
	"testing"
)

// TestDatapathSmoke runs the datapath experiment at a small size: the
// check.sh gate that the benchmark harness itself keeps working. Scale
// up via BENCH_DATAPATH_BYTES / BENCH_DATAPATH_CELLS for profiling runs.
func TestDatapathSmoke(t *testing.T) {
	cfg := DatapathConfig{
		Bytes:      512 << 10,
		MicroCells: 5_000,
		ClockScale: 0.0002,
		Seed:       1,
	}
	if v, err := strconv.Atoi(os.Getenv("BENCH_DATAPATH_BYTES")); err == nil && v > 0 {
		cfg.Bytes = v
	}
	if v, err := strconv.Atoi(os.Getenv("BENCH_DATAPATH_CELLS")); err == nil && v > 0 {
		cfg.MicroCells = v
	}
	res, err := RunDatapath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.ForwardCellsPerSec <= 0 || res.BackwardCellsPerSec <= 0 {
		t.Fatalf("zero end-to-end throughput: %+v", res)
	}
	if res.MicroPooledCellsPerSec <= 0 {
		t.Errorf("zero middle-hop micro throughput: %+v", res)
	}
}
