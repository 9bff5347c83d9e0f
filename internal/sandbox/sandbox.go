// Package sandbox simulates the container layer of a Bento server (§5.2,
// §5.3): per-function containers with cgroup-style resource ceilings, a
// chroot-style private filesystem, a seccomp-style API-call filter, and an
// iptables-style network filter derived from the co-resident relay's exit
// policy. Containers optionally run inside a simulated SGX enclave (the
// Python-OP-SGX image), in which case their filesystem is FS Protect.
package sandbox

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/bento-nfv/bento/internal/enclave"
	"github.com/bento-nfv/bento/internal/fsprotect"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/policy"
)

// Container images offered by the standard Bento server (§5.4).
const (
	ImagePython      = "python"
	ImagePythonOPSGX = "python-op-sgx"
)

// ErrPolicyViolation is wrapped by errors arising from a function
// attempting an action its manifest or the node policy forbids.
var ErrPolicyViolation = errors.New("sandbox: policy violation")

// ErrTenantPanic is wrapped by the error a container returns when the code
// it ran panicked; the container's machine is dead afterwards.
var ErrTenantPanic = errors.New("sandbox: tenant code panicked")

// FileStore abstracts the container's private filesystem: FS Protect for
// enclaved containers, a plain in-memory chroot otherwise.
type FileStore interface {
	Write(path string, data []byte) error
	Read(path string) ([]byte, error)
	Remove(path string) error
	List() []string
	Used() int64
}

// plainFS is the non-enclaved chroot: same namespace rules as FS
// Protect, no encryption.
type plainFS struct {
	mu    sync.Mutex
	files map[string][]byte
	used  int64
	limit int64
}

func newPlainFS(limit int64) *plainFS {
	if limit <= 0 {
		limit = 64 << 20
	}
	return &plainFS{files: make(map[string][]byte), limit: limit}
}

func (fs *plainFS) Write(path string, data []byte) error {
	if err := validPath(path); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	old := int64(len(fs.files[path]))
	if fs.used-old+int64(len(data)) > fs.limit {
		return fmt.Errorf("sandbox: storage limit exceeded (%d bytes)", fs.limit)
	}
	fs.used += int64(len(data)) - old
	fs.files[path] = append([]byte(nil), data...)
	return nil
}

func (fs *plainFS) Read(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("sandbox: file %q not found", path)
	}
	return append([]byte(nil), data...), nil
}

func (fs *plainFS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("sandbox: file %q not found", path)
	}
	fs.used -= int64(len(data))
	delete(fs.files, path)
	return nil
}

func (fs *plainFS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (fs *plainFS) Used() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.used
}

func validPath(path string) error {
	if path == "" {
		return errors.New("sandbox: empty path")
	}
	for i := 0; i+1 < len(path); i++ {
		if path[i] == '.' && path[i+1] == '.' {
			return fmt.Errorf("sandbox: invalid path %q", path)
		}
	}
	return nil
}

// Config configures a container.
type Config struct {
	Image      string
	Manifest   *policy.Manifest
	Policy     *policy.Middlebox
	ExitPolicy *policy.ExitPolicy
	// Platform is required for the SGX image.
	Platform *enclave.Platform
	// Stdout receives the function's print() output.
	Stdout io.Writer
	// FS, when non-nil, mounts an existing file store instead of creating
	// a fresh one — the persistent volume a restart watchdog carries
	// across container generations.
	FS FileStore
}

// Container is one sandboxed function execution environment.
type Container struct {
	id      string
	image   string
	machine *interp.Machine
	fs      FileStore
	encl    *enclave.Enclave
	allowed map[string]bool
	exitPol *policy.ExitPolicy
	handles Handles
}

// New creates a container, checking the manifest against the node policy
// first — a manifest requesting more than the policy allows is rejected
// before any resources are committed.
func New(cfg Config) (*Container, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("sandbox: missing manifest")
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.DefaultMiddlebox()
	}
	if cfg.Image == "" {
		cfg.Image = cfg.Manifest.Image
	}
	if cfg.Image == "" {
		cfg.Image = ImagePython
	}
	man := *cfg.Manifest
	man.Image = cfg.Image
	if err := policy.Check(cfg.Policy, &man); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPolicyViolation, err)
	}

	mem := man.Memory
	if mem <= 0 {
		mem = cfg.Policy.MaxMemory
	}
	instr := man.Instructions
	if instr <= 0 {
		instr = cfg.Policy.MaxInstructions
	}
	storage := man.Storage
	if storage <= 0 {
		storage = cfg.Policy.MaxStorage
	}

	var idb [8]byte
	rand.Read(idb[:])
	c := &Container{
		id:      hex.EncodeToString(idb[:]),
		image:   cfg.Image,
		exitPol: cfg.ExitPolicy,
		allowed: make(map[string]bool, len(man.Calls)),
	}
	for _, call := range man.Calls {
		c.allowed[call] = true
	}

	switch cfg.Image {
	case ImagePython:
		if cfg.FS != nil {
			c.fs = cfg.FS
		} else {
			c.fs = newPlainFS(storage)
		}
	case ImagePythonOPSGX:
		if cfg.Platform == nil {
			return nil, errors.New("sandbox: SGX image requires a platform")
		}
		e, err := cfg.Platform.Launch([]byte("bento:"+cfg.Image), mem)
		if err != nil {
			return nil, fmt.Errorf("sandbox: launching enclave: %w", err)
		}
		if cfg.FS != nil {
			c.fs = cfg.FS
		} else {
			fs, err := fsprotect.New(storage)
			if err != nil {
				e.Destroy()
				return nil, err
			}
			c.fs = fs
		}
		c.encl = e
	default:
		return nil, fmt.Errorf("sandbox: unknown image %q", cfg.Image)
	}

	c.machine = interp.NewMachine(interp.Limits{Instructions: instr, Memory: mem})
	c.machine.Stdout = cfg.Stdout
	return c, nil
}

// ID returns the container's identifier.
func (c *Container) ID() string { return c.id }

// Image returns the container's image name.
func (c *Container) Image() string { return c.image }

// Machine exposes the interpreter for API binding and execution.
func (c *Container) Machine() *interp.Machine { return c.machine }

// FS returns the container's private filesystem.
func (c *Container) FS() FileStore { return c.fs }

// Handles returns the table of host resources the container holds.
func (c *Container) Handles() *Handles { return &c.handles }

// Enclave returns the backing enclave, or nil for plain containers.
func (c *Container) Enclave() *enclave.Enclave { return c.encl }

// Allows reports whether the seccomp-style filter permits an API call
// (the intersection of the manifest's requests with the node policy,
// enforced at New).
func (c *Container) Allows(call string) bool { return c.allowed[call] }

// CheckCall returns ErrPolicyViolation unless the call is permitted.
func (c *Container) CheckCall(call string) error {
	if !c.allowed[call] {
		return fmt.Errorf("%w: call %q not in manifest", ErrPolicyViolation, call)
	}
	return nil
}

// CheckNet enforces the iptables-style filter derived from the relay's
// exit policy (§5.3): a container on a non-exit relay gets no direct
// network access at all.
func (c *Container) CheckNet(host string, port int) error {
	if err := c.CheckCall("net.dial"); err != nil {
		return err
	}
	if !c.exitPol.Allows(host, port) {
		return fmt.Errorf("%w: exit policy refuses %s:%d", ErrPolicyViolation, host, port)
	}
	return nil
}

// Mediate wraps a host function with the call filter; every Bento API
// binding goes through here, so nothing reaches the host unchecked.
func (c *Container) Mediate(call string, fn interp.BuiltinFn) interp.BuiltinFn {
	return func(args []interp.Value) (interp.Value, error) {
		if err := c.CheckCall(call); err != nil {
			return nil, err
		}
		return fn(args)
	}
}

// Run executes function source code in the container.
func (c *Container) Run(src string) error {
	return c.contain(func() error { return c.machine.Run(src) })
}

// RunProgram executes a pre-compiled bscript program in the container's
// machine. Programs are machine-independent, so the Bento server caches
// them by source hash and reuses one Program across containers.
func (c *Container) RunProgram(p *interp.Program) error {
	return c.contain(func() error { return c.machine.RunProgram(p) })
}

// Call invokes a defined function.
func (c *Container) Call(name string, args ...interp.Value) (v interp.Value, err error) {
	err = c.contain(func() error {
		v, err = c.machine.CallFunction(name, args...)
		return err
	})
	return v, err
}

// contain is the recovery boundary around tenant code: Run, RunProgram and
// Call are the only ways into it, and each goes through here. A Go panic
// below — in the interpreter or in a host builtin the tenant reached — is
// the container's death, not the relay's: it comes back as
// ErrTenantPanic and the machine is killed, since whatever it was doing
// was left half done.
func (c *Container) contain(run func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			c.machine.Kill()
			err = fmt.Errorf("%w: %v", ErrTenantPanic, r)
		}
	}()
	return run()
}

// Kill aborts any running code.
func (c *Container) Kill() { c.machine.Kill() }

// Close kills the container, releases every host resource in its handle
// table, and releases its enclave reservation. Each step is idempotent,
// so Close is too.
func (c *Container) Close() {
	c.machine.Kill()
	c.handles.Close()
	if c.encl != nil {
		c.encl.Destroy()
	}
}

// Supervisor manages the containers of one Bento server, enforcing the
// operator's aggregate ceilings (§5.3: "an operator may further manage
// these resource limits in aggregate").
type Supervisor struct {
	policy     *policy.Middlebox
	exitPolicy *policy.ExitPolicy
	platform   *enclave.Platform
	stdout     io.Writer

	mu         sync.Mutex
	containers map[string]*Container
}

// NewSupervisor creates a supervisor for a node with the given policy.
func NewSupervisor(pol *policy.Middlebox, exitPol *policy.ExitPolicy, platform *enclave.Platform, stdout io.Writer) *Supervisor {
	if pol == nil {
		pol = policy.DefaultMiddlebox()
	}
	return &Supervisor{
		policy:     pol,
		exitPolicy: exitPol,
		platform:   platform,
		stdout:     stdout,
		containers: make(map[string]*Container),
	}
}

// Policy returns the node's middlebox policy.
func (s *Supervisor) Policy() *policy.Middlebox { return s.policy }

// Spawn creates a container for a function manifest.
func (s *Supervisor) Spawn(manifest *policy.Manifest) (*Container, error) {
	s.mu.Lock()
	if len(s.containers) >= s.policy.MaxContainers {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: container limit %d reached", ErrPolicyViolation, s.policy.MaxContainers)
	}
	s.mu.Unlock()

	c, err := New(Config{
		Manifest:   manifest,
		Policy:     s.policy,
		ExitPolicy: s.exitPolicy,
		Platform:   s.platform,
		Stdout:     s.stdout,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if len(s.containers) >= s.policy.MaxContainers {
		s.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("%w: container limit %d reached", ErrPolicyViolation, s.policy.MaxContainers)
	}
	s.containers[c.ID()] = c
	s.mu.Unlock()
	return c, nil
}

// Respawn replaces the container with the given ID by a fresh one built
// from the same manifest, remounting the old container's file store (a
// persistent volume). The dead container's slot transfers to its
// replacement, so Respawn never trips the MaxContainers ceiling. It is
// the primitive under the Bento server's restart watchdog.
func (s *Supervisor) Respawn(id string, manifest *policy.Manifest) (*Container, error) {
	s.mu.Lock()
	old := s.containers[id]
	delete(s.containers, id)
	s.mu.Unlock()
	if old == nil {
		return nil, fmt.Errorf("sandbox: no container %q to respawn", id)
	}
	fs := old.FS()
	old.Close()
	c, err := New(Config{
		Manifest:   manifest,
		Policy:     s.policy,
		ExitPolicy: s.exitPolicy,
		Platform:   s.platform,
		Stdout:     s.stdout,
		FS:         fs,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.containers[c.ID()] = c
	s.mu.Unlock()
	return c, nil
}

// Remove closes and forgets a container.
func (s *Supervisor) Remove(id string) {
	s.mu.Lock()
	c := s.containers[id]
	delete(s.containers, id)
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Count reports how many containers are running.
func (s *Supervisor) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.containers)
}

// CloseAll tears down every container.
func (s *Supervisor) CloseAll() {
	s.mu.Lock()
	cs := make([]*Container, 0, len(s.containers))
	for _, c := range s.containers {
		cs = append(cs, c)
	}
	s.containers = make(map[string]*Container)
	s.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
}
