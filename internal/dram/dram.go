// Package dram is a lightweight HBM2e timing model standing in for the
// Ramulator2-based RamSim of the paper's methodology (§6; see DESIGN.md
// §2.2). It services bulk transfers at 64-byte request granularity — the
// same granularity the UniZK artifact reports — over a set of channels
// with per-bank row-buffer state, and reproduces the behaviours the
// accelerator design cares about:
//
//   - a hard bandwidth ceiling (≈1 TB/s for two HBM2e PHYs at 1 GHz);
//   - row-buffer locality: long contiguous runs amortize activations,
//     short scattered chunks pay tRP+tRCD per chunk;
//   - bank-level parallelism hiding activation latency when enough
//     requests are in flight;
//   - read/write turnaround and refresh overheads on mixed streams.
//
// Large transfers are simulated on a sampled request window and scaled,
// keeping simulation time bounded without losing the timing character.
package dram

// Config holds the memory system geometry and timings, in core cycles
// (the chip runs at 1 GHz, paper §6).
type Config struct {
	Channels      int // independent (pseudo-)channels
	Banks         int // banks per channel
	RowBytes      int // row buffer size
	TransferBytes int // request granularity

	TRCD   int // activate to column command
	TRP    int // precharge
	TCL    int // column access latency
	TBurst int // data bus occupancy per transfer
	TTurn  int // read/write bus turnaround penalty

	// RefreshOverhead is the fraction of time lost to refresh (tRFC/tREFI).
	RefreshOverhead float64
}

// HBM2e returns the paper's memory system: two HBM2e PHYs with ≈1 TB/s
// peak (§6), modeled as 16 pseudo-channels delivering 64 B/cycle total...
// 16 channels × 64 B / 1 cycle = 1024 B/cycle = 1.024 TB/s at 1 GHz.
func HBM2e() Config {
	return Config{
		Channels:        16,
		Banks:           16,
		RowBytes:        1024,
		TransferBytes:   64,
		TRCD:            14,
		TRP:             14,
		TCL:             14,
		TBurst:          1,
		TTurn:           8,
		RefreshOverhead: 0.05,
	}
}

// Scaled returns the config with bandwidth scaled by multiplying the
// channel count (used by the Figure 10 design space exploration).
func (c Config) Scaled(bwFactor float64) Config {
	out := c
	out.Channels = int(float64(c.Channels)*bwFactor + 0.5)
	if out.Channels < 1 {
		out.Channels = 1
	}
	return out
}

// PeakBytesPerCycle returns the data bus ceiling.
func (c Config) PeakBytesPerCycle() float64 {
	return float64(c.Channels*c.TransferBytes) / float64(c.TBurst)
}

// Pattern describes a bulk access stream.
type Pattern struct {
	// ChunkBytes is the contiguous run length; 0 means fully sequential.
	ChunkBytes int
	// Interleaved marks mixed read/write streams that pay bus turnaround.
	Interleaved bool
	// MaxParallel caps in-flight chunks (dependency/ILP limits of the
	// issuing kernel); 0 means unlimited.
	MaxParallel int
}

// Sequential is a fully streaming pattern.
var Sequential = Pattern{}

// Model is a DRAM timing model instance. Models are not safe for
// concurrent use; the simulator owns one per run.
type Model struct {
	cfg Config

	// Per-channel, per-bank state.
	chanFree []int64
	bankFree [][]int64
	bankRow  [][]int64

	// Stats.
	totalBytes  int64
	totalCycles int64

	rng uint64
}

// NewModel returns a model for the given configuration.
func NewModel(cfg Config) *Model {
	m := &Model{cfg: cfg, rng: 0x9E3779B97F4A7C15}
	m.chanFree = make([]int64, cfg.Channels)
	m.bankFree = make([][]int64, cfg.Channels)
	m.bankRow = make([][]int64, cfg.Channels)
	for i := range m.bankFree {
		m.bankFree[i] = make([]int64, cfg.Banks)
		m.bankRow[i] = make([]int64, cfg.Banks)
		for j := range m.bankRow[i] {
			m.bankRow[i][j] = -1
		}
	}
	return m
}

// maxSimRequests bounds the per-transfer event simulation; larger
// transfers are sampled and scaled.
const maxSimRequests = 1 << 15

// Transfer returns the cycles needed to move the given number of bytes
// with the given pattern, assuming the transfer starts with idle channels.
func (m *Model) Transfer(bytes int64, p Pattern) int64 {
	if bytes <= 0 {
		return 0
	}
	tb := int64(m.cfg.TransferBytes)
	requests := (bytes + tb - 1) / tb

	simReqs := requests
	scale := 1.0
	if simReqs > maxSimRequests {
		scale = float64(requests) / float64(maxSimRequests)
		simReqs = maxSimRequests
	}

	cycles := m.simulate(simReqs, p)
	total := int64(float64(cycles) * scale)
	total = int64(float64(total) * (1 + m.cfg.RefreshOverhead))
	if total < 1 {
		total = 1
	}
	m.totalBytes += bytes
	m.totalCycles += total
	return total
}

// simulate runs the request-level event loop and returns the finish time.
func (m *Model) simulate(requests int64, p Pattern) int64 {
	c := m.cfg
	m.reset()

	chunkReqs := int64(1)
	if p.ChunkBytes > c.TransferBytes {
		chunkReqs = int64(p.ChunkBytes / c.TransferBytes)
	}
	sequential := p.ChunkBytes == 0

	rowReqs := int64(c.RowBytes / c.TransferBytes)

	// Completion ring for the in-flight cap.
	var window []int64
	if p.MaxParallel > 0 {
		window = make([]int64, p.MaxParallel)
	}

	var finish int64
	var block int64 // current 64B block address (in units of transfers)
	var issued int64
	var chunkStartIssue int64
	reqSinceTurn := make([]int64, c.Channels)

	for i := int64(0); i < requests; i++ {
		if !sequential && i%chunkReqs == 0 {
			// Jump to a pseudo-random chunk start.
			block = int64(m.nextRand() % (1 << 40))
			chunkStartIssue = i
			_ = chunkStartIssue
		}

		ch := int(block % int64(c.Channels))
		within := block / int64(c.Channels)
		bank := int((within / rowReqs) % int64(c.Banks))
		row := within / (rowReqs * int64(c.Banks))

		var issueAt int64
		if window != nil {
			issueAt = window[issued%int64(len(window))]
		}

		ready := m.bankFree[ch][bank]
		if ready < issueAt {
			ready = issueAt
		}
		if m.bankRow[ch][bank] != row {
			ready += int64(c.TRP + c.TRCD)
			m.bankRow[ch][bank] = row
		}
		dataStart := ready + int64(c.TCL)
		if dataStart < m.chanFree[ch] {
			dataStart = m.chanFree[ch]
		}
		// Mixed read/write streams pay a bus turnaround once per
		// scheduling batch (controllers coalesce directions).
		if p.Interleaved {
			reqSinceTurn[ch]++
			if reqSinceTurn[ch]%32 == 0 {
				dataStart += int64(c.TTurn)
			}
		}
		done := dataStart + int64(c.TBurst)

		m.chanFree[ch] = done
		m.bankFree[ch][bank] = ready
		if done > finish {
			finish = done
		}
		if window != nil {
			window[issued%int64(len(window))] = done
		}
		issued++
		block++
	}
	return finish
}

func (m *Model) reset() {
	for i := range m.chanFree {
		m.chanFree[i] = 0
		for j := range m.bankFree[i] {
			m.bankFree[i][j] = 0
			m.bankRow[i][j] = -1
		}
	}
}

// nextRand is a xorshift64* generator for chunk placement.
func (m *Model) nextRand() uint64 {
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	return m.rng * 0x2545F4914F6CDD1D
}

// Stats returns total bytes moved and cycles spent across all transfers.
func (m *Model) Stats() (bytes, cycles int64) {
	return m.totalBytes, m.totalCycles
}
