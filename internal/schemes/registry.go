package schemes

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"whirlpool/internal/cache"
	"whirlpool/internal/energy"
	"whirlpool/internal/jigsaw"
	"whirlpool/internal/llc"
	"whirlpool/internal/noc"
)

// Kind names a registered LLC organization by its stable lowercase
// identifier (the string used in CLI flags, spec files, and the public
// API). Kind values are ordinary strings, so schemes added at runtime
// via Register are first-class: they parse, build, and sweep exactly
// like the six built-ins.
type Kind string

// The paper's six evaluated schemes, registered at init.
const (
	KindSNUCALRU   Kind = "snuca-lru"
	KindSNUCADRRIP Kind = "snuca-drrip"
	KindIdealSPD   Kind = "idealspd"
	KindAwasthi    Kind = "awasthi"
	KindJigsaw     Kind = "jigsaw"
	KindWhirlpool  Kind = "whirlpool"
)

// Options configures scheme construction.
type Options struct {
	Chip  *noc.Chip
	Meter *energy.Meter
	// JigsawClassify is the classifier plain Jigsaw uses (thread-private
	// or process-shared VCs).
	JigsawClassify llc.Classifier
	// WhirlpoolClassify adds per-pool VCs.
	WhirlpoolClassify llc.Classifier
	// ReconfigCycles is the runtime period for Jigsaw/Whirlpool/Awasthi.
	ReconfigCycles uint64
	// Bypass enables Jigsaw/Whirlpool VC bypassing (on in the paper's
	// evaluation; the NoBypass variants are an ablation).
	Bypass bool
}

// Builder constructs one LLC organization from the shared options.
type Builder func(o Options) llc.LLC

// Def describes one registered scheme.
type Def struct {
	// ID is the stable lowercase identifier (Kind).
	ID Kind
	// Label is the figure label ("Whirlpool", "DRRIP", ...).
	Label string
	// Build constructs the scheme.
	Build Builder
}

// The registry maps scheme identifiers to their definitions. Built-ins
// register at init in the paper's presentation order; external packages
// append via Register. Reads vastly outnumber writes (every sweep cell
// does a lookup), hence the RWMutex.
var (
	regMu    sync.RWMutex
	registry = map[Kind]*Def{}
	regOrder []Kind
)

// idRe keeps identifiers CLI- and spec-file-safe (comma-separated flag
// lists, JSON keys).
const idChars = "abcdefghijklmnopqrstuvwxyz0123456789-_."

// Register adds a scheme under a stable identifier. The identifier must
// be non-empty, lowercase ([a-z0-9-_.]), and not already taken; label
// defaults to the identifier when empty. Registered schemes immediately
// show up in AllKinds, ParseKind, the sweep engine, and the CLIs.
func Register(id, label string, build Builder) error {
	if id == "" {
		return fmt.Errorf("schemes: cannot register an empty identifier")
	}
	if strings.Trim(id, idChars) != "" {
		return fmt.Errorf("schemes: identifier %q must use only [a-z0-9-_.]", id)
	}
	if build == nil {
		return fmt.Errorf("schemes: scheme %q needs a builder", id)
	}
	if label == "" {
		label = id
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[Kind(id)]; ok {
		return fmt.Errorf("schemes: scheme %q already registered", id)
	}
	registry[Kind(id)] = &Def{ID: Kind(id), Label: label, Build: build}
	regOrder = append(regOrder, Kind(id))
	return nil
}

// MustRegister is Register for init-time use; it panics on error.
func MustRegister(id, label string, build Builder) {
	if err := Register(id, label, build); err != nil {
		panic(err)
	}
}

// Lookup returns the definition for a scheme identifier.
func Lookup(k Kind) (*Def, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[k]
	return d, ok
}

// String returns the figure label for the scheme, or the raw identifier
// if it was never registered.
func (k Kind) String() string {
	if d, ok := Lookup(k); ok {
		return d.Label
	}
	return string(k)
}

// ID returns the stable lowercase identifier used in CLI flags, spec
// files, and the public API (distinct from the figure label String()).
func (k Kind) ID() string { return string(k) }

// AllKinds lists the registered schemes in registration order: the six
// built-ins in the paper's presentation order, then any externally
// registered schemes.
func AllKinds() []Kind {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]Kind(nil), regOrder...)
}

// PaperKinds lists exactly the paper's six evaluated schemes in
// presentation order. Figure and table reproductions iterate this, not
// AllKinds, so runtime-registered schemes never alter published
// results.
func PaperKinds() []Kind {
	return []Kind{KindSNUCALRU, KindSNUCADRRIP, KindIdealSPD, KindAwasthi, KindJigsaw, KindWhirlpool}
}

// KindIDs lists every scheme identifier in registration order.
func KindIDs() []string {
	ks := AllKinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.ID()
	}
	return out
}

// ParseKind resolves a scheme identifier (see Kind.ID) to its Kind.
func ParseKind(name string) (Kind, error) {
	if _, ok := Lookup(Kind(name)); ok {
		return Kind(name), nil
	}
	valid := KindIDs()
	sort.Strings(valid)
	return "", fmt.Errorf("schemes: unknown scheme %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Build constructs the requested scheme, panicking on unregistered
// kinds (callers parse identifiers with ParseKind first; the sweep
// engine converts panics into error rows).
func Build(k Kind, o Options) llc.LLC {
	d, ok := Lookup(k)
	if !ok {
		panic(fmt.Sprintf("schemes: unknown kind %q", k))
	}
	return d.Build(o)
}

func init() {
	MustRegister(string(KindSNUCALRU), "LRU", func(o Options) llc.LLC {
		return NewSNUCA(o.Chip, o.Meter, cache.LRU)
	})
	MustRegister(string(KindSNUCADRRIP), "DRRIP", func(o Options) llc.LLC {
		return NewSNUCA(o.Chip, o.Meter, cache.DRRIP)
	})
	MustRegister(string(KindIdealSPD), "IdealSPD", func(o Options) llc.LLC {
		return NewIdealSPD(o.Chip, o.Meter)
	})
	MustRegister(string(KindAwasthi), "Awasthi", func(o Options) llc.LLC {
		return NewAwasthi(o.Chip, o.Meter, o.ReconfigCycles)
	})
	MustRegister(string(KindJigsaw), "Jigsaw", func(o Options) llc.LLC {
		return jigsaw.New(jigsaw.Config{
			Chip: o.Chip, Meter: o.Meter,
			Classify:       o.JigsawClassify,
			SchemeName:     "Jigsaw",
			BypassEnabled:  o.Bypass,
			ReconfigCycles: o.ReconfigCycles,
		})
	})
	MustRegister(string(KindWhirlpool), "Whirlpool", func(o Options) llc.LLC {
		return jigsaw.New(jigsaw.Config{
			Chip: o.Chip, Meter: o.Meter,
			Classify:       o.WhirlpoolClassify,
			SchemeName:     "Whirlpool",
			BypassEnabled:  o.Bypass,
			ReconfigCycles: o.ReconfigCycles,
		})
	})
}
