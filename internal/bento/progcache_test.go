package bento

import (
	"errors"
	"fmt"
	"testing"

	"github.com/bento-nfv/bento/internal/interp"
)

// TestProgramCacheSkipsRecompilation pins the compile-once contract of the
// server's program cache via telemetry: uploading the same source twice
// compiles it exactly once, and a watchdog restart re-runs the cached
// Program without touching the compiler either.
func TestProgramCacheSkipsRecompilation(t *testing.T) {
	w := buildWorld(t, 3, 1)
	reg := w.net.Obs()
	compiles := reg.Counter("interp.compiles")
	hits := reg.Counter("bento.program_cache_hits")
	misses := reg.Counter("bento.program_cache_misses")

	cli := w.client(t, "alice", 310)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := conn.Spawn(restartManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()

	if err := fn.Upload(statefulFunction); err != nil {
		t.Fatal(err)
	}
	if compiles.Value() != 1 || misses.Value() != 1 || hits.Value() != 0 {
		t.Fatalf("first upload: compiles=%d misses=%d hits=%d, want 1/1/0",
			compiles.Value(), misses.Value(), hits.Value())
	}

	// Re-uploading byte-identical code is served from the cache: no
	// lexing, parsing, or compiling happens at all.
	if err := fn.Upload(statefulFunction); err != nil {
		t.Fatal(err)
	}
	if compiles.Value() != 1 || hits.Value() != 1 {
		t.Fatalf("re-upload: compiles=%d hits=%d, want compiles=1 hits=1",
			compiles.Value(), hits.Value())
	}

	// A watchdog restart re-runs the last uploaded code on a fresh
	// machine — also from the cache.
	if _, _, err := fn.Invoke("setup", interp.Bytes("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fn.Invoke("burn"); !errors.Is(err, ErrRestarted) {
		t.Fatalf("burn: %v, want ErrRestarted", err)
	}
	if compiles.Value() != 1 || hits.Value() != 2 {
		t.Fatalf("after restart: compiles=%d hits=%d, want compiles=1 hits=2",
			compiles.Value(), hits.Value())
	}
	if _, _, err := fn.Invoke("serve"); err != nil {
		t.Fatalf("invoke after restart: %v", err)
	}
}

// TestProgramCacheBounded: the cache holds compiled programs outside any
// container's memory accounting, so a tenant uploading distinct sources
// must not grow it without bound; a source it still holds is still a hit.
func TestProgramCacheBounded(t *testing.T) {
	w := buildWorld(t, 3, 1)
	srv := w.servers[0]
	hits := w.net.Obs().Counter("bento.program_cache_hits")

	cli := w.client(t, "alice", 311)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()

	source := func(i int) string { return fmt.Sprintf("def ping():\n    return %d\n", i) }
	const uploads = 1000
	for i := 0; i < uploads; i++ {
		if err := fn.Upload(source(i)); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	srv.progMu.Lock()
	n := len(srv.progCache)
	srv.progMu.Unlock()
	if n > maxCachedPrograms {
		t.Fatalf("%d distinct uploads left %d cached programs, want <= %d", uploads, n, maxCachedPrograms)
	}
	if hits.Value() != 0 {
		t.Fatalf("distinct uploads counted %d cache hits", hits.Value())
	}
	// The newest entry is never the one evicted to make room for itself.
	if err := fn.Upload(source(uploads - 1)); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 1 {
		t.Fatalf("re-upload of a retained source: hits=%d, want 1", hits.Value())
	}
	if _, ret, err := fn.Invoke("ping"); err != nil || ret != interp.Int(uploads-1) {
		t.Fatalf("invoke after re-upload: ret=%v err=%v", ret, err)
	}
}
