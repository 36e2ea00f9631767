package scenegen

// catalog is the built-in scenario catalog: the paper's five driving
// scenarios (§V-C, Fig. 4), DS-1..DS-5 in name order, built once at
// package init. Nothing adds to it afterwards, so Lookup and Names read
// it without a lock; its specs are shared and must not be mutated.
//
// The specs replay the historical hand-built scenario builders bit for
// bit — the scenario package's golden-equivalence test enforces it — so
// every jitter base/spread, the sampling order (BehaviorFirst on the
// DS-1 target vehicle) and DS-5's randomized traffic count are part of
// the contract.
var catalog = [...]*Spec{DS1Spec(), DS2Spec(), DS3Spec(), DS4Spec(), DS5Spec()}

// Lookup returns the built-in spec with the given name.
func Lookup(name string) (*Spec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Names returns the built-in scenario names, sorted.
func Names() []string {
	out := make([]string, len(catalog))
	for i, s := range catalog {
		out[i] = s.Name
	}
	return out
}
