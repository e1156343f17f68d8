package design

import (
	"ccnvm/internal/core"
	"ccnvm/internal/design/names"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/seccrypto"
)

// The catalog: one Register call per design, paper order first. This is
// the single place a design's name, label, constructor and capabilities
// are stated; everything else derives from it.
func init() {
	Register(Descriptor{
		Name:      names.WoCC,
		Label:     "w/o CC",
		InFigures: true,
		Baseline:  true,
		New: func(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, mc metacache.Config, p engine.Params) engine.Engine {
			return engine.NewWoCC(lay, keys, ctrl, mc, p)
		},
		Caps: Capabilities{
			// Secure but not crash consistent: on-chip counters and tree
			// state die with power, so even an un-attacked crash image
			// fails verification — tamper reports by design, unbounded
			// staleness, no replay evidence.
			TamperOnCrash: true,
			TreePersisted: true,
			Replay:        ReplayUndetectable,
		},
	})
	Register(Descriptor{
		Name:      names.SC,
		Label:     "SC",
		InFigures: true,
		New: func(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, mc metacache.Config, p engine.Params) engine.Engine {
			return engine.NewSC(lay, keys, ctrl, mc, p)
		},
		Caps: Capabilities{
			// Strict consistency persists the full metadata path per
			// write-back: recovery needs zero retries, and a clean crash
			// leaves nothing to recover.
			TreePersisted:     true,
			EpochAtomic:       true,
			ZeroRetryRecovery: true,
			Replay:            ReplayRootCompare,
		},
	})
	Register(Descriptor{
		Name:      names.Osiris,
		Label:     "Osiris Plus",
		InFigures: true,
		New: func(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, mc metacache.Config, p engine.Params) engine.Engine {
			return engine.NewOsiris(lay, keys, ctrl, mc, p)
		},
		Caps: Capabilities{
			// Osiris bounds counter staleness but does not persist its
			// tree: step 1 is skipped, and replay is detect-only via the
			// rebuilt-root comparison.
			TreePersisted: false,
			Replay:        ReplayRootCompare,
		},
	})
	Register(Descriptor{
		Name:      names.CCNVMWoDS,
		Label:     "cc-NVM w/o DS",
		InFigures: true,
		New: func(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, mc metacache.Config, p engine.Params) engine.Engine {
			return core.NewCCNVMWoDS(lay, keys, ctrl, mc, p)
		},
		Caps: Capabilities{
			// cc-NVM without deferred spreading: epoch-atomic persistence
			// but no Nwb window evidence — replay is root-compare only.
			TreePersisted: true,
			EpochAtomic:   true,
			Replay:        ReplayRootCompare,
		},
	})
	Register(Descriptor{
		Name:      names.CCNVM,
		Label:     "cc-NVM",
		InFigures: true,
		New: func(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, mc metacache.Config, p engine.Params) engine.Engine {
			return core.NewCCNVM(lay, keys, ctrl, mc, p)
		},
		Caps: Capabilities{
			// The paper's design: epoch-atomic persistence plus the Nwb
			// register, so the deferred-spreading replay window is
			// detected (though not located) by Nretry-vs-Nwb.
			TreePersisted: true,
			EpochAtomic:   true,
			Replay:        ReplayNwbWindow,
		},
	})
	Register(Descriptor{
		Name:  names.CCNVMExt,
		Label: "cc-NVM+Ext",
		New: func(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, mc metacache.Config, p engine.Params) engine.Engine {
			return core.NewCCNVMExt(lay, keys, ctrl, mc, p)
		},
		Caps: Capabilities{
			// §4.4 extension: per-counter-line update registers pin a
			// window replay to its 4 KiB page.
			TreePersisted: true,
			EpochAtomic:   true,
			Replay:        ReplayPerLinePage,
		},
	})
	Register(Descriptor{
		Name:  names.Arsenal,
		Label: "Arsenal",
		New: func(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, mc metacache.Config, p engine.Params) engine.Engine {
			return engine.NewArsenal(lay, keys, ctrl, mc, p)
		},
		Caps: Capabilities{
			// Compression baseline: counters/HMACs inline in packed lines,
			// recovered without retries (but blocks still count as
			// recovered, so no ZeroRetryRecovery claim). Like Osiris it
			// keeps its tree on chip only, so step 1 has nothing to verify
			// and replay of a whole self-consistent line is detect-only
			// via root compare.
			Replay: ReplayRootCompare,
		},
	})
}
