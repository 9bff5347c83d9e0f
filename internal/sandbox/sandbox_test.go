package sandbox

import (
	"bytes"
	"errors"
	"testing"

	"github.com/bento-nfv/bento/internal/enclave"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/policy"
)

func basicManifest(calls ...string) *policy.Manifest {
	return &policy.Manifest{
		Name:         "test-fn",
		Image:        ImagePython,
		Calls:        calls,
		Memory:       4 << 20,
		Instructions: 1_000_000,
		Storage:      1 << 20,
	}
}

func TestContainerRunsCode(t *testing.T) {
	c, err := New(Config{Manifest: basicManifest()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run("x = 21 * 2"); err != nil {
		t.Fatal(err)
	}
	v, _ := c.Machine().Globals.Lookup("x")
	if v != interp.Int(42) {
		t.Fatalf("x = %v", v)
	}
}

func TestManifestExceedingPolicyRejected(t *testing.T) {
	man := basicManifest()
	man.Memory = 1 << 40
	if _, err := New(Config{Manifest: man}); !errors.Is(err, ErrPolicyViolation) {
		t.Fatalf("got %v, want policy violation", err)
	}
	man2 := basicManifest("os.exec")
	if _, err := New(Config{Manifest: man2}); !errors.Is(err, ErrPolicyViolation) {
		t.Fatalf("forbidden call: got %v", err)
	}
}

func TestSeccompStyleCallFilter(t *testing.T) {
	// The manifest requests fewer calls than the policy allows; the
	// sandbox must constrain to the manifest (§5.5).
	c, err := New(Config{Manifest: basicManifest("fs.read")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CheckCall("fs.read"); err != nil {
		t.Fatalf("requested call denied: %v", err)
	}
	if err := c.CheckCall("fs.write"); !errors.Is(err, ErrPolicyViolation) {
		t.Fatalf("policy-allowed but unrequested call permitted: %v", err)
	}
}

func TestMediateBlocksUnrequestedCalls(t *testing.T) {
	c, err := New(Config{Manifest: basicManifest("log")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	called := false
	fn := c.Mediate("fs.write", func(args []interp.Value) (interp.Value, error) {
		called = true
		return interp.None, nil
	})
	if _, err := fn(nil); !errors.Is(err, ErrPolicyViolation) {
		t.Fatalf("got %v", err)
	}
	if called {
		t.Fatal("mediated function executed despite violation")
	}
}

func TestNetworkFilterFollowsExitPolicy(t *testing.T) {
	exitPol, _ := policy.ParseExitPolicy("accept web:80", "reject *:*")
	c, err := New(Config{Manifest: basicManifest("net.dial"), ExitPolicy: exitPol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CheckNet("web", 80); err != nil {
		t.Fatalf("permitted destination denied: %v", err)
	}
	if err := c.CheckNet("web", 22); !errors.Is(err, ErrPolicyViolation) {
		t.Fatalf("forbidden port allowed: %v", err)
	}
	// Non-exit relay (nil policy): no direct network at all (§5.3).
	c2, _ := New(Config{Manifest: basicManifest("net.dial")})
	defer c2.Close()
	if err := c2.CheckNet("anything", 80); !errors.Is(err, ErrPolicyViolation) {
		t.Fatalf("non-exit relay allowed direct network: %v", err)
	}
}

func TestResourceExhaustionContained(t *testing.T) {
	man := basicManifest()
	man.Instructions = 5000
	c, err := New(Config{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run("i = 0\nwhile True:\n    i += 1\n")
	if !errors.Is(err, interp.ErrBudgetExceeded) {
		t.Fatalf("got %v", err)
	}
}

func TestChrootFilesystem(t *testing.T) {
	c, err := New(Config{Manifest: basicManifest()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FS().Write("data/file", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := c.FS().Read("data/file")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read: %q, %v", got, err)
	}
	if err := c.FS().Write("../escape", []byte("x")); err == nil {
		t.Fatal("chroot escape allowed")
	}
	// Containers do not share filesystems.
	c2, _ := New(Config{Manifest: basicManifest()})
	defer c2.Close()
	if _, err := c2.FS().Read("data/file"); err == nil {
		t.Fatal("containers share a filesystem")
	}
}

func TestStorageLimitEnforced(t *testing.T) {
	man := basicManifest()
	man.Storage = 1024
	c, err := New(Config{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FS().Write("big", make([]byte, 4096)); err == nil {
		t.Fatal("over-quota write accepted")
	}
}

func TestSGXImage(t *testing.T) {
	platform, err := enclave.NewPlatform(enclave.MinTCBVersion)
	if err != nil {
		t.Fatal(err)
	}
	man := basicManifest()
	man.Image = ImagePythonOPSGX
	c, err := New(Config{Manifest: man, Image: ImagePythonOPSGX, Platform: platform})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Enclave() == nil {
		t.Fatal("SGX container has no enclave")
	}
	if platform.EPCUsed() == 0 {
		t.Fatal("no EPC reserved")
	}
	// Writes are encrypted (FS Protect).
	c.FS().Write("secret", []byte("PLAINTEXT-MARKER"))
	got, err := c.FS().Read("secret")
	if err != nil || string(got) != "PLAINTEXT-MARKER" {
		t.Fatalf("round trip: %q %v", got, err)
	}
	c.Close()
	if platform.EPCUsed() != 0 {
		t.Fatalf("EPC not released: %d", platform.EPCUsed())
	}
	// SGX image without a platform fails.
	if _, err := New(Config{Manifest: man, Image: ImagePythonOPSGX}); err == nil {
		t.Fatal("SGX container created without platform")
	}
}

func TestUnknownImageRejected(t *testing.T) {
	man := basicManifest()
	pol := policy.DefaultMiddlebox()
	pol.Images = append(pol.Images, "weird")
	if _, err := New(Config{Manifest: man, Image: "weird", Policy: pol}); err == nil {
		t.Fatal("unknown image accepted")
	}
}

func TestKillStopsRunningFunction(t *testing.T) {
	man := basicManifest()
	man.Instructions = 1 << 40
	pol := policy.DefaultMiddlebox()
	pol.MaxInstructions = 1 << 40
	c, err := New(Config{Manifest: man, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Run("i = 0\nwhile True:\n    i += 1\n") }()
	c.Kill()
	if err := <-done; !errors.Is(err, interp.ErrKilled) {
		t.Fatalf("got %v", err)
	}
}

func TestSupervisorContainerLimit(t *testing.T) {
	pol := policy.DefaultMiddlebox()
	pol.MaxContainers = 2
	s := NewSupervisor(pol, nil, nil, nil)
	defer s.CloseAll()

	c1, err := s.Spawn(basicManifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn(basicManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn(basicManifest()); !errors.Is(err, ErrPolicyViolation) {
		t.Fatalf("flooding beyond limit: %v", err)
	}
	// Removing one frees a slot (DoS-by-flooding containment, §6.2).
	s.Remove(c1.ID())
	if _, err := s.Spawn(basicManifest()); err != nil {
		t.Fatalf("slot not reclaimed: %v", err)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestContainerPrintGoesToStdout(t *testing.T) {
	var out bytes.Buffer
	c, err := New(Config{Manifest: basicManifest(), Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(`print("from the sandbox")`)
	if out.String() != "from the sandbox\n" {
		t.Fatalf("stdout %q", out.String())
	}
}

// TestTenantPanicContained: a Go panic below tenant code comes out of every
// door into the container (Run, RunProgram, Call) as ErrTenantPanic, and
// leaves the machine dead rather than half-updated.
func TestTenantPanicContained(t *testing.T) {
	prog, err := interp.Compile("def boom():\n    return crash()\n\nboom()\n")
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(c *Container) error{
		"Run":        func(c *Container) error { return c.Run("crash()") },
		"RunProgram": func(c *Container) error { return c.RunProgram(prog) },
		"Call": func(c *Container) error {
			if err := c.Run("def boom():\n    return crash()\n"); err != nil {
				t.Fatal(err)
			}
			_, err := c.Call("boom")
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{Manifest: basicManifest()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Machine().Bind("crash", &interp.Builtin{Name: "crash", Fn: func([]interp.Value) (interp.Value, error) {
				var xs []interp.Value
				return xs[3], nil // a host bug: index out of range
			}})
			if err := run(c); !errors.Is(err, ErrTenantPanic) {
				t.Fatalf("err = %v, want ErrTenantPanic", err)
			}
			if err := c.Run("x = 1"); !errors.Is(err, interp.ErrKilled) {
				t.Fatalf("after the panic: err = %v, want ErrKilled", err)
			}
		})
	}
}
