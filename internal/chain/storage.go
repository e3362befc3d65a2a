package chain

import (
	"crypto/sha256"
	"sort"
)

// Storage is a contract's persistent key-value store. Reads and writes go
// through a gas-metered view; values are opaque byte strings and an absent
// or empty value is the "zero" slot of the EVM cost model.
//
// A Storage is one of two shapes, either of which metered wraps in a view
// that charges a gas meter and shares the underlying data:
//
//   - the root store (held in Chain.storages): owns the data map and the
//     cached digest, or
//   - an overlay view (ov != nil): what transactions execute against;
//     reads and writes are redirected to a speculative overlay (see
//     execview.go) and never touch the root data until the chain applies
//     the transaction's effects.
type Storage struct {
	data map[string][]byte
	gas  *GasMeter     // nil on the root store; set on metered views
	ov   *storeOverlay // transaction overlay; nil on the root store

	// rootRef points from a metered view back to the root store so writes
	// through the view can invalidate the digest cache; nil on the root.
	rootRef *Storage

	// Cached content digest, maintained on the root store only. Every
	// mutation path (Set, Delete, snapshot restore, effect application)
	// goes through invalidate(), which keeps the state root
	// O(touched contracts) per seal instead of O(total slots).
	dig   [32]byte
	digOK bool
}

// NewStorage returns an empty store.
func NewStorage() *Storage {
	return &Storage{data: make(map[string][]byte)}
}

// metered returns a view that charges the given meter. The view shares the
// underlying data (or, on an overlay view, the overlay).
func (s *Storage) metered(gas *GasMeter) *Storage {
	return &Storage{data: s.data, gas: gas, ov: s.ov, rootRef: s.root()}
}

// root resolves the digest-cache owner of this view.
func (s *Storage) root() *Storage {
	if s.rootRef != nil {
		return s.rootRef
	}
	return s
}

// invalidate drops the root store's cached digest; called on every path
// that mutates the underlying data.
func (s *Storage) invalidate() {
	s.root().digOK = false
}

// Get reads a slot, charging SLOAD gas on metered views.
func (s *Storage) Get(key string) ([]byte, error) {
	if s.gas != nil {
		if err := s.gas.Charge(GasSLoad); err != nil {
			return nil, err
		}
	}
	var (
		v  []byte
		ok bool
	)
	if s.ov != nil {
		v, ok = s.ov.get(key)
	} else {
		v, ok = s.data[key]
	}
	if !ok {
		return nil, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Set writes a slot, charging SSTORE gas: 20k for zero→non-zero, 5k
// otherwise. Multi-word values charge per 32-byte word, like Solidity
// dynamic storage.
func (s *Storage) Set(key string, value []byte) error {
	if s.gas != nil {
		words := uint64((len(value) + 31) / 32)
		if words == 0 {
			words = 1
		}
		// The charge depends on whether the slot exists, so on an overlay
		// this is an observation the conflict detector must validate: a
		// racing creator of the same slot changes this transaction's gas.
		var existed bool
		if s.ov != nil {
			existed = s.ov.exists(key)
		} else {
			_, existed = s.data[key]
		}
		var cost uint64
		if !existed {
			cost = GasSStoreSet * words
		} else {
			cost = GasSStoreReset * words
		}
		if err := s.gas.Charge(cost); err != nil {
			return err
		}
	}
	if s.ov != nil {
		s.ov.set(key, value)
		return nil
	}
	out := make([]byte, len(value))
	copy(out, value)
	s.data[key] = out
	s.invalidate()
	return nil
}

// Delete clears a slot.
func (s *Storage) Delete(key string) error {
	if s.gas != nil {
		if err := s.gas.Charge(GasSStoreClear); err != nil {
			return err
		}
	}
	if s.ov != nil {
		s.ov.del(key)
		return nil
	}
	delete(s.data, key)
	s.invalidate()
	return nil
}

// Has reports whether a slot is non-empty (charges a read).
func (s *Storage) Has(key string) (bool, error) {
	v, err := s.Get(key)
	return len(v) > 0, err
}

// digest hashes the store contents deterministically, serving from the
// cache when no slot changed since the last call.
func (s *Storage) digest() [32]byte {
	r := s.root()
	if r.digOK {
		return r.dig
	}
	d := r.digestFull()
	r.dig, r.digOK = d, true
	return d
}

// digestFull is the uncached full walk; the digest-cache test pins
// digest() to it.
func (s *Storage) digestFull() [32]byte {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write(s.data[k])
		h.Write([]byte{1})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
