package bento

import (
	"errors"
	"fmt"
	"strings"
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
// must not grow it past maxCachedSource bytes of source, however many or
// however large the uploads; a source it still holds is still a hit.
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
	cachedBytes := func() int {
		srv.progMu.Lock()
		defer srv.progMu.Unlock()
		total := 0
		for _, c := range srv.progCache {
			total += c.size
		}
		if total != srv.progBytes {
			t.Fatalf("progBytes = %d, the cached sources add up to %d", srv.progBytes, total)
		}
		return total
	}
	const uploads = 1000
	for i := 0; i < uploads; i++ {
		if err := fn.Upload(source(i)); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	if hits.Value() != 0 {
		t.Fatalf("distinct uploads counted %d cache hits", hits.Value())
	}
	// Large distinct sources, compiled straight through the server (the
	// network adds nothing here), push the total past the bound.
	rf := srv.lookup(fn.InvokeToken())
	for i := 0; i < 3*maxCachedSource/(maxCode/2); i++ {
		big := fmt.Sprintf("def big():\n    return %d\n#%s\n", i, strings.Repeat("x", maxCode/2))
		if err := srv.runCode(rf, big); err != nil {
			t.Fatal(err)
		}
		if n := cachedBytes(); n > maxCachedSource {
			t.Fatalf("after %d large sources the cache holds %d bytes of source, want <= %d", i+1, n, maxCachedSource)
		}
	}
	// The newest entry, added to a full cache, is never the one evicted to
	// make room for itself.
	for i := 0; i < 2; i++ {
		if err := fn.Upload(source(uploads)); err != nil {
			t.Fatal(err)
		}
	}
	if hits.Value() != 1 {
		t.Fatalf("re-upload of a retained source: hits=%d, want 1", hits.Value())
	}
	if _, ret, err := fn.Invoke("ping"); err != nil || ret != interp.Int(uploads) {
		t.Fatalf("invoke after re-upload: ret=%v err=%v", ret, err)
	}
}
