package cloud

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Driver is the libcloud-like abstraction of an IaaS provider used by the
// deployable service layer (§3.6: "We use the libcloud library, which
// allows unifying access to various IaaS Cloud technologies in a single
// API"). Implementations must be safe for concurrent use.
type Driver interface {
	// Name identifies the provider ("ec2", "opennebula", ...).
	Name() string
	// Launch requests one instance configured to run the given DG worker
	// image and returns its descriptor. The instance may still be booting.
	Launch(req LaunchRequest) (InstanceInfo, error)
	// Terminate shuts an instance down. Unknown IDs return an error.
	Terminate(id string) error
	// List returns all non-terminated instances.
	List() []InstanceInfo
}

// LaunchRequest describes the worker to start.
type LaunchRequest struct {
	// Image is the VM image embedding the DG worker middleware.
	Image string `json:"image"`
	// BatchID is the QoS batch the worker is dedicated to.
	BatchID string `json:"batch_id"`
	// DGServer is the Desktop Grid server URL the worker connects to.
	DGServer string `json:"dg_server"`
}

// InstanceState is an instance lifecycle state.
type InstanceState string

// Instance lifecycle states.
const (
	StatePending    InstanceState = "pending"
	StateRunning    InstanceState = "running"
	StateTerminated InstanceState = "terminated"
)

// InstanceInfo describes a provider instance.
type InstanceInfo struct {
	ID        string        `json:"id"`
	Provider  string        `json:"provider"`
	State     InstanceState `json:"state"`
	BatchID   string        `json:"batch_id"`
	DGServer  string        `json:"dg_server"`
	Image     string        `json:"image"`
	StartedAt time.Time     `json:"started_at"`
}

// MockDriver is an in-memory IaaS used in tests, examples and the default
// daemon configuration. Instances move pending→running after BootLatency.
type MockDriver struct {
	name        string
	bootLatency time.Duration
	costPerHour float64

	mu        sync.Mutex
	now       func() time.Time
	seq       int
	instances map[string]*mockInstance
}

type mockInstance struct {
	info    InstanceInfo
	readyAt time.Time
}

// NewMockDriver builds a named mock provider.
func NewMockDriver(name string, bootLatency time.Duration, costPerHour float64) *MockDriver {
	return &MockDriver{
		name:        name,
		bootLatency: bootLatency,
		costPerHour: costPerHour,
		now:         time.Now,
		instances:   map[string]*mockInstance{},
	}
}

// SetClock replaces the driver's clock, so boot latencies elapse on an
// injected (e.g. virtual) timeline instead of the wall clock.
func (d *MockDriver) SetClock(now func() time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now = now
}

// NewMockEC2 and the constructors below build the providers the paper's
// prototype supports (§3.7). Boot latencies and prices are representative,
// not contractual.
func NewMockEC2() *MockDriver { return NewMockDriver("ec2", 90*time.Second, 0.34) }

// NewMockEucalyptus builds the Eucalyptus mock provider.
func NewMockEucalyptus() *MockDriver { return NewMockDriver("eucalyptus", 120*time.Second, 0.20) }

// NewMockRackspace builds the Rackspace mock provider.
func NewMockRackspace() *MockDriver { return NewMockDriver("rackspace", 100*time.Second, 0.32) }

// NewMockOpenNebula builds the OpenNebula mock provider.
func NewMockOpenNebula() *MockDriver { return NewMockDriver("opennebula", 150*time.Second, 0.10) }

// NewMockStratusLab builds the StratusLab mock provider.
func NewMockStratusLab() *MockDriver { return NewMockDriver("stratuslab", 150*time.Second, 0.10) }

// NewMockNimbus builds the Nimbus mock provider.
func NewMockNimbus() *MockDriver { return NewMockDriver("nimbus", 140*time.Second, 0.12) }

// NewMockGrid5000 builds the free Grid'5000 mock provider.
func NewMockGrid5000() *MockDriver { return NewMockDriver("grid5000", 180*time.Second, 0.0) }

// Name implements Driver.
func (d *MockDriver) Name() string { return d.name }

// CostPerHour returns the provider's hourly instance price.
func (d *MockDriver) CostPerHour() float64 { return d.costPerHour }

// Launch implements Driver.
func (d *MockDriver) Launch(req LaunchRequest) (InstanceInfo, error) {
	if req.Image == "" {
		return InstanceInfo{}, fmt.Errorf("%s: launch request needs a worker image", d.name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	now := d.now()
	inst := &mockInstance{
		info: InstanceInfo{
			ID:        fmt.Sprintf("%s-%06d", d.name, d.seq),
			Provider:  d.name,
			State:     StatePending,
			BatchID:   req.BatchID,
			DGServer:  req.DGServer,
			Image:     req.Image,
			StartedAt: now,
		},
		readyAt: now.Add(d.bootLatency),
	}
	d.instances[inst.info.ID] = inst
	return inst.info, nil
}

// refresh moves pending instances to running once their boot latency has
// elapsed. Callers hold d.mu.
func (d *MockDriver) refresh(inst *mockInstance) {
	if inst.info.State == StatePending && !d.now().Before(inst.readyAt) {
		inst.info.State = StateRunning
	}
}

// Terminate implements Driver.
func (d *MockDriver) Terminate(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	inst, ok := d.instances[id]
	if !ok {
		return fmt.Errorf("%s: unknown instance %q", d.name, id)
	}
	inst.info.State = StateTerminated
	delete(d.instances, id)
	return nil
}

// Describe returns the current descriptor of an instance.
func (d *MockDriver) Describe(id string) (InstanceInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	inst, ok := d.instances[id]
	if !ok {
		return InstanceInfo{}, fmt.Errorf("%s: unknown instance %q", d.name, id)
	}
	d.refresh(inst)
	return inst.info, nil
}

// List implements Driver.
func (d *MockDriver) List() []InstanceInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]InstanceInfo, 0, len(d.instances))
	for _, inst := range d.instances {
		d.refresh(inst)
		out = append(out, inst.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Registry holds the drivers available to a SpeQuloS deployment, keyed by
// provider name. It is fixed at construction, so any number of goroutines
// may read it.
type Registry struct {
	drivers map[string]Driver
}

// NewRegistry builds a registry from the given drivers.
func NewRegistry(drivers ...Driver) *Registry {
	r := &Registry{drivers: map[string]Driver{}}
	for _, d := range drivers {
		r.drivers[d.Name()] = d
	}
	return r
}

// DefaultRegistry returns a registry with all supported mock providers.
func DefaultRegistry() *Registry {
	return NewRegistry(
		NewMockEC2(), NewMockEucalyptus(), NewMockRackspace(),
		NewMockOpenNebula(), NewMockStratusLab(), NewMockNimbus(),
		NewMockGrid5000(),
	)
}

// Get returns the named driver.
func (r *Registry) Get(name string) (Driver, error) {
	d, ok := r.drivers[name]
	if !ok {
		return nil, fmt.Errorf("cloud: unknown provider %q", name)
	}
	return d, nil
}
