package chain

import (
	"fmt"
	"math/rand"
	"testing"
)

// refModel is the reference transaction semantics the identity tests diff
// the chain against: a plain serial state machine that executes contracts
// directly on its own maps and rolls a reverted call back by restoring a
// deep copy taken before it. It shares no code with runTx,
// applyEffectsLocked or the batch overlays — only Storage, GasMeter and the
// contracts themselves — so an executor bug shows up as a diff here even
// when every width of the executor agrees with every other.
type refModel struct {
	height    uint64
	contracts map[string]Contract
	accounts  map[Address]AccountState
	storages  map[string]*Storage
	logs      []Event // committed events, in order
}

// newRefModel copies a chain's state (no pending transactions) and
// deployed contracts into a model.
func newRefModel(t *testing.T, c *Chain) *refModel {
	t.Helper()
	exp, err := c.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	m := &refModel{
		height:    uint64(len(exp.Blocks)),
		contracts: make(map[string]Contract),
		accounts:  exp.Accounts,
		storages:  make(map[string]*Storage),
	}
	for name, data := range exp.Storages {
		m.storages[name] = &Storage{data: data}
	}
	c.mu.Lock()
	for name, ct := range c.contracts {
		m.contracts[name] = ct
	}
	c.mu.Unlock()
	return m
}

func (m *refModel) blockNumber() uint64 { return m.height }
func (m *refModel) getContract(name string) (Contract, bool) {
	ct, ok := m.contracts[name]
	return ct, ok
}
func (m *refModel) storeFor(name string) *Storage { return m.storages[name] }

func (m *refModel) transferValue(from, to Address, amount uint64) error {
	f := m.accounts[from]
	if f.Balance < amount {
		return fmt.Errorf("%w: %d < %d", ErrInsufficientFund, f.Balance, amount)
	}
	f.Balance -= amount
	m.accounts[from] = f
	r := m.accounts[to]
	r.Balance += amount
	m.accounts[to] = r
	return nil
}

func (m *refModel) setNonce(a Address, n uint64) {
	acc := m.accounts[a]
	acc.Nonce = n
	m.accounts[a] = acc
}

func copySlots(data map[string][]byte) map[string][]byte {
	cp := make(map[string][]byte, len(data))
	for k, v := range data {
		cp[k] = append([]byte(nil), v...)
	}
	return cp
}

// save deep-copies the model's mutable state.
func (m *refModel) save() *StateExport {
	s := &StateExport{Accounts: make(map[Address]AccountState, len(m.accounts)), Storages: make(map[string]map[string][]byte)}
	for a, acc := range m.accounts {
		s.Accounts[a] = acc
	}
	for name, st := range m.storages {
		s.Storages[name] = copySlots(st.data)
	}
	return s
}

func (m *refModel) restore(s *StateExport) {
	m.accounts = s.Accounts
	for name, data := range s.Storages {
		m.storages[name].data = data
	}
}

// submit executes one transaction with Submit's contract: a receipt for a
// processed transaction (a revert rolls back everything but the sender
// nonce), or a Go error for a malformed one, which touches nothing — except
// that an unknown contract still advances the sender nonce.
func (m *refModel) submit(tx Transaction) (*Receipt, error) {
	want := m.accounts[tx.From].Nonce
	if tx.Nonce != want {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadNonce, tx.Nonce, want)
	}
	if tx.GasLimit == 0 {
		tx.GasLimit = DefaultGasLimit
	}
	gas := NewGasMeter(tx.GasLimit)
	if err := gas.Charge(GasTxBase + uint64(len(tx.Args))*GasCalldataByte); err != nil {
		return nil, err
	}
	receipt := &Receipt{TxHash: tx.Hash()}
	if tx.Contract == "" {
		if tx.Value > 0 && tx.To == (Address{}) {
			return nil, ErrNoRecipient
		}
		if err := m.transferValue(tx.From, tx.To, tx.Value); err != nil {
			return nil, err
		}
		m.setNonce(tx.From, tx.Nonce+1)
		receipt.GasUsed = gas.Used()
		return receipt, nil
	}
	contract, ok := m.contracts[tx.Contract]
	if !ok {
		m.setNonce(tx.From, tx.Nonce+1)
		return nil, fmt.Errorf("%w: %s", ErrUnknownContract, tx.Contract)
	}
	saved := m.save()
	if tx.Value > 0 {
		if err := m.transferValue(tx.From, contractAddress(tx.Contract), tx.Value); err != nil {
			return nil, err
		}
	}
	m.setNonce(tx.From, tx.Nonce+1)
	ctx := &CallContext{
		Sender: tx.From,
		Value:  tx.Value,
		Gas:    gas,
		Store:  m.storages[tx.Contract].metered(gas),
		env:    m,
		name:   tx.Contract,
	}
	ret, err := contract.Call(ctx, tx.Method, tx.Args)
	receipt.GasUsed = gas.Used()
	if err != nil {
		m.restore(saved)
		m.setNonce(tx.From, tx.Nonce+1)
		receipt.Err = fmt.Errorf("%w: %s.%s: %w", ErrReverted, tx.Contract, tx.Method, err)
		return receipt, nil
	}
	receipt.Return = ret
	receipt.Logs = ctx.logs
	m.logs = append(m.logs, ctx.logs...)
	return receipt, nil
}

func (m *refModel) submitAll(txs []Transaction) []TxOutcome {
	out := make([]TxOutcome, len(txs))
	for i := range txs {
		r, err := m.submit(txs[i])
		out[i] = TxOutcome{Receipt: r, Err: err}
	}
	return out
}

// seal advances the model's height, as sealing a block does the chain's.
func (m *refModel) seal() { m.height++ }

func (m *refModel) events(contract, name string) []Event {
	var out []Event
	for _, ev := range m.logs {
		if ev.Contract == contract && ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// nonzeroAccounts drops zero accounts: a missing record and a zero one are
// the same state, and executors differ in which zero records they create.
func nonzeroAccounts(accts map[Address]AccountState) map[Address]AccountState {
	out := make(map[Address]AccountState)
	for a, acc := range accts {
		if acc != (AccountState{}) {
			out[a] = acc
		}
	}
	return out
}

// diffState fails the test when two states differ in any account or
// storage slot.
func diffState(t *testing.T, label string, want, got *StateExport) {
	t.Helper()
	wa, ga := nonzeroAccounts(want.Accounts), nonzeroAccounts(got.Accounts)
	if len(wa) != len(ga) {
		t.Fatalf("%s: %d non-zero accounts, want %d", label, len(ga), len(wa))
	}
	for a, w := range wa {
		if g := ga[a]; g != w {
			t.Fatalf("%s: account %s is %+v, want %+v", label, a, g, w)
		}
	}
	if len(want.Storages) != len(got.Storages) {
		t.Fatalf("%s: %d storages, want %d", label, len(got.Storages), len(want.Storages))
	}
	for name, w := range want.Storages {
		g := got.Storages[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d slots, want %d", label, name, len(g), len(w))
		}
		for k, v := range w {
			if gv, ok := g[k]; !ok || string(gv) != string(v) {
				t.Fatalf("%s: %s slot %q is %x, want %x", label, name, k, gv, v)
			}
		}
	}
}

// diffModel fails the test when a sealed chain's state or event index
// differs from the model's.
func diffModel(t *testing.T, label string, ref *refModel, c *Chain) {
	t.Helper()
	exp, err := c.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Height() + 1; got != ref.height {
		t.Fatalf("%s: next block %d, model %d", label, got, ref.height)
	}
	diffState(t, label+" vs model", ref.save(), exp)
	for _, ev := range []struct{ contract, name string }{{"pa", "Bumped"}, {"pb", "Bumped"}} {
		want, got := ref.events(ev.contract, ev.name), c.EventsByName(ev.contract, ev.name)
		if len(want) != len(got) {
			t.Fatalf("%s: %s.%s has %d events, model %d", label, ev.contract, ev.name, len(got), len(want))
		}
		for j := range want {
			if string(want[j].Topic) != string(got[j].Topic) || string(want[j].Data) != string(got[j].Data) {
				t.Fatalf("%s: %s.%s event %d diverged from the model", label, ev.contract, ev.name, j)
			}
		}
	}
}

// TestRefModelMatchesChain diffs every production entry point into the
// executor — Submit, SubmitBatch at widths 1 through 8, and ImportBlock
// replay — against the reference model over randomized workloads.
func TestRefModelMatchesChain(t *testing.T) {
	t.Run("submit-and-batch", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nSenders := 2 + rng.Intn(6)
			viaSubmit, senders := batchFixture(t, nSenders)
			ref := newRefModel(t, viaSubmit)
			widths := []int{1, 2, 4, 8}
			batched := make([]*Chain, len(widths))
			for i, w := range widths {
				batched[i], _ = batchFixture(t, nSenders)
				batched[i].SetExecWorkers(w)
			}
			for round := 0; round < 3; round++ {
				txs := randomBatch(rng, senders, 5+rng.Intn(40))
				want := ref.submitAll(txs)
				for i := range txs {
					r, err := viaSubmit.Submit(txs[i])
					diffOutcome(t, i, want[i], TxOutcome{Receipt: r, Err: err})
				}
				for _, c := range batched {
					got := c.SubmitBatch(txs)
					for i := range txs {
						diffOutcome(t, i, want[i], got[i])
					}
				}
				ref.seal()
				viaSubmit.SealBlock()
				diffModel(t, fmt.Sprintf("seed %d round %d Submit", seed, round), ref, viaSubmit)
				for j, c := range batched {
					c.SealBlock()
					diffModel(t, fmt.Sprintf("seed %d round %d width %d", seed, round, widths[j]), ref, c)
				}
			}
		}
	})

	t.Run("import", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			producer, senders := batchFixture(t, 5)
			ref := newRefModel(t, producer)
			importers := make([]*Chain, 2)
			for i, w := range []int{1, 8} {
				importers[i], _ = batchFixture(t, 5)
				importers[i].SetExecWorkers(w)
			}
			for round := 0; round < 3; round++ {
				var want []*Receipt
				for _, tx := range randomBatch(rng, senders, 30) {
					// The unknown-contract quirk advances the producer's
					// nonce without the transaction entering the block,
					// so the sealed stream would not replay.
					if tx.Contract == "nope" {
						tx.Contract, tx.Method = "pa", "bump"
					}
					r, err := ref.submit(tx)
					if _, perr := producer.Submit(tx); errText(perr) != errText(err) {
						t.Fatalf("seed %d round %d: Submit error %q, model %q", seed, round, errText(perr), errText(err))
					}
					if err == nil {
						want = append(want, r)
					}
				}
				ref.seal()
				b := producer.SealBlock()
				body, _ := producer.BlockBody(b.Number)
				for _, imp := range importers {
					got, err := imp.ImportBlock(b, body)
					if err != nil {
						t.Fatalf("seed %d round %d: import: %v", seed, round, err)
					}
					if len(got) != len(want) {
						t.Fatalf("seed %d round %d: %d receipts, model %d", seed, round, len(got), len(want))
					}
					for i := range want {
						diffOutcome(t, i, TxOutcome{Receipt: want[i]}, TxOutcome{Receipt: got[i]})
					}
					diffModel(t, fmt.Sprintf("seed %d round %d import", seed, round), ref, imp)
				}
			}
		}
	})
}
