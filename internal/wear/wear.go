// Package wear defines the contract between wear-leveling schemes and the
// memory they manage, and provides the Controller that glues a scheme to a
// PCM bank.
//
// The Controller is also where the paper's threat model lives: an attacker
// interacts with memory only through Read and Write on logical addresses
// and observes per-request latency. Remapping movements triggered by a
// write are performed synchronously, so their latency is visible on that
// request — this is the timing side channel the Remapping Timing Attack
// exploits ("remapping halts other requests until it is completed").
package wear

import (
	"fmt"

	"securityrbsg/internal/pcm"
)

// Mover is the data-movement interface a scheme uses during remapping.
// *pcm.Bank satisfies it; tests substitute recording movers.
type Mover interface {
	// Move copies the content of physical line src to dst and returns the
	// latency in nanoseconds (one read plus one write).
	Move(src, dst uint64) uint64
	// Swap exchanges the contents of physical lines x and y and returns
	// the latency in nanoseconds (two reads plus two writes).
	Swap(x, y uint64) uint64
}

// Scheme is a wear-leveling address translation layer. Implementations are
// deterministic given their construction-time RNG and are not safe for
// concurrent use — experiments shard by running one scheme+bank per
// goroutine.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// LogicalLines returns the size of the logical address space.
	LogicalLines() uint64
	// PhysicalLines returns the number of physical lines required,
	// including any spare (gap) lines.
	PhysicalLines() uint64
	// Translate maps a logical address to the physical line that currently
	// holds its data. It must be a injection from [0, LogicalLines()) into
	// [0, PhysicalLines()) at every instant.
	Translate(la uint64) uint64
	// NoteWrite informs the scheme that a demand write to la completed.
	// If the scheme's remapping interval has elapsed it performs its
	// remapping movement(s) through m and returns the movement latency in
	// nanoseconds (0 when no remapping was triggered).
	NoteWrite(la uint64, m Mover) uint64
}

// Controller owns a bank and a scheme and exposes the logical read/write
// interface with per-request latency — everything an attacker can see.
type Controller struct {
	bank   *pcm.Bank
	scheme Scheme

	// TranslationNs is the address-translation latency added to every
	// request (the paper assumes 10 ns for Security RBSG's DFN plus SRAM
	// lookup). Zero by default so lifetime experiments match the paper's
	// pure write-time accounting.
	TranslationNs uint64

	demandWrites uint64
	demandReads  uint64
	remapNs      uint64
	remapEvents  uint64
}

// NewController wires scheme to a fresh bank derived from cfg: the bank is
// created with scheme.PhysicalLines() lines and cfg's line size, endurance
// and timing.
func NewController(cfg pcm.Config, scheme Scheme) (*Controller, error) {
	cfg.Lines = scheme.PhysicalLines()
	bank, err := pcm.NewBank(cfg)
	if err != nil {
		return nil, err
	}
	return &Controller{bank: bank, scheme: scheme}, nil
}

// MustNewController is NewController that panics on error.
func MustNewController(cfg pcm.Config, scheme Scheme) *Controller {
	c, err := NewController(cfg, scheme)
	if err != nil {
		panic(err)
	}
	return c
}

// Bank returns the underlying PCM bank.
func (c *Controller) Bank() *pcm.Bank { return c.bank }

// Scheme returns the wear-leveling scheme.
func (c *Controller) Scheme() Scheme { return c.scheme }

// Write performs a demand write of content to logical address la and
// returns the observed latency in nanoseconds: translation + device write
// + any remapping movement triggered by this write.
func (c *Controller) Write(la uint64, content pcm.Content) uint64 {
	if la >= c.scheme.LogicalLines() {
		panic(fmt.Errorf("wear: logical address %d out of range %d", la, c.scheme.LogicalLines()))
	}
	c.demandWrites++
	pa := c.scheme.Translate(la)
	ns := c.TranslationNs + c.bank.Write(pa, content)
	if c.TranslationNs > 0 {
		c.bank.AdvanceNs(c.TranslationNs)
	}
	if rns := c.scheme.NoteWrite(la, c.bank); rns > 0 {
		c.remapNs += rns
		c.remapEvents++
		ns += rns
	}
	return ns
}

// Read returns the content of logical address la and the observed latency.
func (c *Controller) Read(la uint64) (pcm.Content, uint64) {
	if la >= c.scheme.LogicalLines() {
		panic(fmt.Errorf("wear: logical address %d out of range %d", la, c.scheme.LogicalLines()))
	}
	c.demandReads++
	content, ns := c.bank.Read(c.scheme.Translate(la))
	if c.TranslationNs > 0 {
		c.bank.AdvanceNs(c.TranslationNs)
	}
	return content, ns + c.TranslationNs
}

// DemandWrites returns the number of demand (non-remap) writes issued.
func (c *Controller) DemandWrites() uint64 { return c.demandWrites }

// RemapEvents returns how many writes triggered remapping movements.
func (c *Controller) RemapEvents() uint64 { return c.remapEvents }

// RemapNs returns the total latency spent in remapping movements.
func (c *Controller) RemapNs() uint64 { return c.remapNs }

// WriteOverhead returns remap device writes as a fraction of demand writes
// — the quantity the paper bounds at 1% for practical schemes.
func (c *Controller) WriteOverhead() float64 {
	if c.demandWrites == 0 {
		return 0
	}
	total := c.bank.TotalWrites()
	if total <= c.demandWrites {
		return 0
	}
	return float64(total-c.demandWrites) / float64(c.demandWrites)
}
