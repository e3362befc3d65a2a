package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/snapshot"
	"github.com/zkdet/zkdet/internal/storage"
)

const (
	// exchangeRate is the open loop's offered load in exchanges/s, about a
	// third of the highest rate the open loop sustained on a 2-CPU Xeon
	// (90/s kept up; at 120/s only 78/s completed). At 60/s the run-to-run
	// spread of the latency median was 0.36; at 30/s it is about 0.01.
	exchangeRate = 30
	// satShare is the share (1/satShare) of the window given to the
	// saturation phase, which follows the open loop.
	satShare = 3
	// satInflight is how many exchanges each client loop keeps in flight
	// in the saturation phase: enough that blocks fill faster than the
	// node's 25 ms seal interval, so throughput is bound by the node's
	// verification, execution and sealing, not by the interval.
	satInflight = 32
	// satCap caps the saturation phase's pre-drawn exchanges per second of
	// the phase; running out of them fails the run.
	satCap = 400
	// exchangeAccounts is the funded population; every escrow settle
	// copies all balances on the serial path, so its size shows up in
	// commit latency.
	exchangeAccounts = 10_000
	// pikPool is how many distinct π_k proofs set-up makes. An exchange
	// holds one from its escrow open until its settle is sealed, so every
	// block's seal-time fold sees distinct proofs, as it would with real
	// exchanges; the run checks that no block carries one proof twice.
	pikPool = 16
	// exchangePrice is the escrowed value of every exchange.
	exchangePrice = 5000
	// warmSeconds of offered load run before timing starts.
	warmSeconds = 1
	// untracedShare of a traced run's exchanges run before tracing starts,
	// giving the untraced median the overhead is measured against.
	untracedShare = 3
)

// pikFixture is one distinct π_k with the escrow material it settles.
type pikFixture struct {
	hv, ck, kc, proof []byte
}

func makePiK(sys *core.System, rng *rand.Rand) (pikFixture, error) {
	s, err := core.NewSeller(sys, randomDataset(rng, 4), randomElement(rng), core.TruePredicate{})
	if err != nil {
		return pikFixture{}, err
	}
	kv := randomElement(rng)
	hv := core.HashChallenge(kv)
	st, proof, err := s.NegotiateKey(kv, hv)
	if err != nil {
		return pikFixture{}, err
	}
	ckEl := s.Listing(0).KeyCommitment
	ck, hvB, kcB := ckEl.Bytes(), hv.Bytes(), st.KC.Bytes()
	return pikFixture{hv: hvB[:], ck: ck[:], kc: kcB[:], proof: proof.Bytes()}, nil
}

// sealHooks brackets the indexer, durable-store and node OnSeal hooks
// with timestamps, and times the node's seal-time batch verification.
// Hooks run one block at a time, in registration order, under the chain's
// seal lock, so one set of timestamps serves every block.
type sealHooks struct {
	on atomic.Bool // record only while the traced phase runs
	tr *Tracer

	mu     sync.Mutex
	at     [3]time.Time // guarded by mu; hooks 0–2 of the block being sealed
	verify []verifyCall // guarded by mu
}

type verifyCall struct {
	d        time.Duration
	verified int
}

// sealStages names the interval between hook i and hook i+1.
var sealStages = []string{"seal.indexer", "seal.wal", "seal.node"}

func (h *sealHooks) hook(i int) func(chain.Block, []*chain.Receipt) {
	return func(chain.Block, []*chain.Receipt) {
		if !h.on.Load() {
			return
		}
		now := time.Now()
		h.mu.Lock()
		defer h.mu.Unlock()
		if i < len(h.at) {
			h.at[i] = now
			return
		}
		ends := append(h.at[1:], now)
		for k, name := range sealStages {
			if !h.at[k].IsZero() {
				h.tr.Record(0, 0, name, h.at[k], ends[k])
			}
		}
		h.at = [3]time.Time{}
	}
}

// tracedVerifier wraps the node's SealVerifier.
type tracedVerifier struct {
	inner node.SealVerifier
	h     *sealHooks
}

func (v *tracedVerifier) VerifyBatch(txs []*chain.Transaction) (int, []error) {
	start := time.Now()
	n, errs := v.inner.VerifyBatch(txs)
	if v.h.on.Load() {
		end := time.Now()
		v.h.tr.Record(0, 0, "seal.verify", start, end)
		v.h.mu.Lock()
		v.h.verify = append(v.h.verify, verifyCall{end.Sub(start), n})
		v.h.mu.Unlock()
	}
	return n, errs
}

// exchangeRig is the in-process durable node the exchange workload
// drives, wired as cmd/zkdet-node wires its durable mode.
type exchangeRig struct {
	sys      *core.System
	opts     snapshot.Options
	accounts []chain.Address
	d        *snapshot.DurableStore
	blobs    storage.BlobStore
	mkt      *core.Marketplace
	ix       *indexer.Indexer
	node     *node.Node
	hooks    *sealHooks
}

// genesis deploys the contract suite on a fresh chain and funds the
// population. Recovery after a crash replays onto the same genesis.
func (r *exchangeRig) genesis(bs storage.BlobStore) (*core.Marketplace, error) {
	mkt, _, err := core.NewMarketplaceWith(r.sys, chain.New(), bs)
	if err != nil {
		return nil, err
	}
	for _, a := range r.accounts {
		mkt.Chain.Faucet(a, 1<<40)
	}
	return mkt, nil
}

func newExchangeRig(sys *core.System, dir string, seed int64, tr *Tracer) (*exchangeRig, error) {
	r := &exchangeRig{sys: sys, hooks: &sealHooks{tr: tr}}
	for i := 0; i < exchangeAccounts; i++ {
		r.accounts = append(r.accounts, chain.AddressFromString(fmt.Sprintf("acct-%d-%05d", seed, i)))
	}
	role, err := snapshot.ParseRole("archive")
	if err != nil {
		return nil, err
	}
	r.opts = snapshot.Options{Dir: dir, Role: role}
	if r.d, err = snapshot.Open(r.opts); err != nil {
		return nil, err
	}
	r.blobs = r.d.Blobs(storage.NewStore())
	if r.mkt, err = r.genesis(r.blobs); err != nil {
		return nil, err
	}
	c := r.mkt.Chain
	c.OnSeal(r.hooks.hook(0))
	r.ix = r.mkt.AttachIndexer()
	c.OnSeal(r.hooks.hook(1))
	if _, err := r.d.Recover(c); err != nil {
		return nil, err
	}
	if err := r.d.Attach(c); err != nil {
		return nil, err
	}
	c.OnSeal(r.hooks.hook(2))
	cfg := node.DefaultConfig()
	cfg.SealVerifier = &tracedVerifier{inner: r.mkt.ProofChecker(), h: r.hooks}
	r.node = node.New(c, cfg)
	c.OnSeal(r.hooks.hook(3))
	r.node.Start()
	return r, nil
}

// crashRecover stops the node, abandons the durable store as a SIGKILL
// would, recovers the data dir into a fresh genesis chain and checks that
// the head height and state root survive.
func (r *exchangeRig) crashRecover() error {
	r.node.Stop()
	head := r.mkt.Chain.Head()
	r.waitIdle()
	r.d.Crash()
	d2, err := snapshot.Open(r.opts)
	if err != nil {
		return err
	}
	defer d2.Close()
	mkt2, err := r.genesis(d2.Blobs(storage.NewStore()))
	if err != nil {
		return err
	}
	if _, err := d2.Recover(mkt2.Chain); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	got := mkt2.Chain.Head()
	if got.Number != head.Number || got.StateRoot != head.StateRoot {
		return fmt.Errorf("recovered head %d root %x, want %d root %x", got.Number, got.StateRoot[:6], head.Number, head.StateRoot[:6])
	}
	return nil
}

// waitIdle returns once the durable store's counters have not moved for
// idleFor (or after idleMax). A background checkpoint still running at
// Crash would go on writing into the directory being recovered, which a
// killed process cannot do; waiting for it models a kill between blocks.
func (r *exchangeRig) waitIdle() {
	const idleFor, idleMax, poll = 250 * time.Millisecond, 5 * time.Second, 25 * time.Millisecond
	last, since, start := r.d.Stats(), time.Now(), time.Now()
	for time.Since(since) < idleFor && time.Since(start) < idleMax {
		time.Sleep(poll)
		if s := r.d.Stats(); s != last {
			last, since = s, time.Now()
		}
	}
}

// flow is one exchange in flight: a state machine its event loop advances
// each time the transaction it waits on gets its result.
type flow struct {
	id              int
	t               OpenLoopTiming
	seller, buyer   chain.Address
	sellerI         int
	pik             int
	exID            uint64
	blob            []byte
	uri             storage.URI
	commitment      []byte
	rootID, childID uint64
	step            int
	wait            <-chan node.TxResult
	submitted       time.Time
	cur             *Cursor
	traced          bool
	gas             uint64
	commits         []float64
	settleBlock     uint64
	holding         bool // holds piks[pik] between open and settle
}

var exchangeSteps = []string{"tx.mint", "tx.duplicate", "tx.open", "tx.settle", "tx.transfer"}

// exLoop is one client goroutine's event loop. Each loop owns its share
// of the flows and of the π_k pool, so loops share nothing but the node.
type exLoop struct {
	r     *exchangeRig
	piks  []pikFixture
	epoch time.Time
	// free lists the loop's π_k fixtures not held by an exchange. A
	// fixture is held from its escrow open until its settle is sealed, so
	// no block can carry one proof twice; an exchange that finds none
	// free waits in parked.
	free   []int
	parked []*flow

	attempted int
	fails     []string
	done      []*flow
	puts      map[storage.URI]bool
	blobRep   int
	admit     []float64
	lineUS    []float64
	exUS      []float64
}

func (c *exLoop) fail(format string, args ...any) {
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
}

// start runs a flow's synchronous first step (the durable blob put) and
// submits its mint.
func (c *exLoop) start(f *flow) error {
	f.t.Start = time.Since(c.epoch)
	f.cur.Push("exchange")
	f.cur.Push("storage.put")
	uri, err := c.r.blobs.Put(fmt.Sprintf("seller-%d", f.sellerI), f.blob)
	f.cur.Pop()
	if err != nil {
		return fmt.Errorf("blob put: %w", err)
	}
	if c.puts[uri] {
		c.blobRep++
	}
	c.puts[uri] = true
	f.uri = uri
	return c.submit(f, chain.Transaction{From: f.seller, Contract: contracts.DataNFTName, Method: "mint",
		Args: contracts.EncodeArgs(uri[:], f.commitment)})
}

func (c *exLoop) submit(f *flow, tx chain.Transaction) error {
	f.cur.Push(exchangeSteps[f.step])
	f.cur.Push("node.admit")
	f.submitted = time.Now()
	_, ch, err := c.r.node.SubmitForResult(tx, true)
	f.cur.Pop()
	if f.traced {
		c.admit = append(c.admit, us(time.Since(f.submitted)))
	}
	if err != nil {
		f.cur.Pop()
		return fmt.Errorf("%s: %w", exchangeSteps[f.step], err)
	}
	f.wait = ch
	return nil
}

func (c *exLoop) release(f *flow) {
	if f.holding {
		c.free = append(c.free, f.pik)
		f.holding = false
	}
}

// open takes a free π_k fixture and submits the buyer's escrow open, or
// parks the flow until a fixture is released.
func (c *exLoop) open(f *flow) (parked bool, err error) {
	if len(c.free) == 0 {
		c.parked = append(c.parked, f)
		return true, nil
	}
	f.pik, f.holding = c.free[len(c.free)-1], true
	c.free = c.free[:len(c.free)-1]
	pk := c.piks[f.pik]
	return false, c.submit(f, chain.Transaction{From: f.buyer, Contract: contracts.EscrowName, Method: "open", Value: exchangePrice,
		Args: contracts.EncodeArgs(contracts.U64(f.exID), f.seller[:], pk.hv, pk.ck)})
}

// advance consumes the result the flow waited on and submits its next
// transaction; it returns done when the flow's checks have run and parked
// when the flow waits for a π_k fixture.
func (c *exLoop) advance(f *flow, res node.TxResult) (done, parked bool, err error) {
	f.commits = append(f.commits, ms(time.Since(f.submitted)))
	f.cur.Pop()
	name := exchangeSteps[f.step]
	if name == "tx.settle" {
		c.release(f)
	}
	if res.Err != nil {
		return true, false, fmt.Errorf("%s: %w", name, res.Err)
	}
	if res.Receipt == nil {
		return true, false, fmt.Errorf("%s: no receipt", name)
	}
	if res.Receipt.Err != nil {
		return true, false, fmt.Errorf("%s reverted: %v", name, res.Receipt.Err)
	}
	f.gas += res.Receipt.GasUsed
	f.step++
	switch name {
	case "tx.mint":
		if f.rootID, err = contracts.DecU64(res.Receipt.Return); err != nil {
			return true, false, err
		}
		return false, false, c.submit(f, chain.Transaction{From: f.seller, Contract: contracts.DataNFTName, Method: "duplicate",
			Args: contracts.EncodeArgs(contracts.U64(f.rootID), f.uri[:], f.commitment)})
	case "tx.duplicate":
		if f.childID, err = contracts.DecU64(res.Receipt.Return); err != nil {
			return true, false, err
		}
		parked, err = c.open(f)
		return false, parked, err
	case "tx.open":
		pk := c.piks[f.pik]
		return false, false, c.submit(f, chain.Transaction{From: f.seller, Contract: contracts.EscrowName, Method: "settle",
			Args: contracts.EncodeArgs(contracts.U64(f.exID), pk.kc, pk.proof, pk.kc, pk.ck, pk.hv)})
	case "tx.settle":
		f.settleBlock = res.BlockNumber
		return false, false, c.submit(f, chain.Transaction{From: f.seller, Contract: contracts.DataNFTName, Method: "transfer",
			Args: contracts.EncodeArgs(contracts.U64(f.childID), f.buyer[:])})
	}
	return true, false, c.check(f)
}

// check is the exchange's last step: the indexer must show the child ←
// root lineage owned by the buyer and the exchange settled at its price.
func (c *exLoop) check(f *flow) error {
	f.cur.Push("indexer.lineage")
	t := time.Now()
	lin, err := c.r.ix.Lineage(f.childID)
	if f.traced {
		c.lineUS = append(c.lineUS, us(time.Since(t)))
	}
	f.cur.Pop()
	if err != nil {
		return fmt.Errorf("lineage: %w", err)
	}
	ok := len(lin.Tokens) == 2 && lin.Tokens[0].ID == f.childID && lin.Tokens[1].ID == f.rootID &&
		lin.Tokens[0].Kind == contracts.KindDuplication && lin.Tokens[1].Kind == contracts.KindMint &&
		lin.Tokens[0].Owner == f.buyer && len(lin.Edges) == 1 &&
		lin.Edges[0] == indexer.Edge{Parent: f.rootID, Child: f.childID}
	if !ok {
		return fmt.Errorf("lineage of token %d does not match the exchange", f.childID)
	}
	f.cur.Push("indexer.exchange")
	t = time.Now()
	ex, err := c.r.ix.Exchange(f.exID)
	if f.traced {
		c.exUS = append(c.exUS, us(time.Since(t)))
	}
	f.cur.Pop()
	if err != nil {
		return fmt.Errorf("exchange status: %w", err)
	}
	if ex.Status != indexer.ExchangeSettled || ex.Value != exchangePrice || ex.Seller != f.seller {
		return fmt.Errorf("exchange %d is %s value %d", f.exID, ex.Status, ex.Value)
	}
	return nil
}

// newFlow draws one exchange's inputs: seller and buyer from the
// population and a fresh dataset whose ciphertext is the blob.
func newFlow(rng *rand.Rand, accounts []chain.Address, id int, due time.Duration, tr *Tracer) *flow {
	f := &flow{id: id, t: OpenLoopTiming{Due: due}, exID: uint64(id) + 1}
	f.sellerI = rng.Intn(len(accounts))
	buyerI := (f.sellerI + 1 + rng.Intn(len(accounts)-1)) % len(accounts)
	f.seller, f.buyer = accounts[f.sellerI], accounts[buyerI]
	data := randomDataset(rng, 4)
	key := randomElement(rng)
	ct := data.Encrypt(key)
	f.blob = ct.Bytes()
	cd, _ := data.Commit()
	ck, _ := core.KeyCommit(key)
	cdB, ckB := cd.Bytes(), ck.Bytes()
	f.commitment = append(cdB[:], ckB[:]...)
	f.cur = &Cursor{T: tr, Op: uint64(id) + 1}
	f.traced = tr != nil
	return f
}

// makeFlows draws count flows with ids from idBase and due times (relative
// to the start of the offer) from a seeded Poisson schedule at rate.
// Flows from index cut on carry the tracer.
func makeFlows(rng *rand.Rand, accounts []chain.Address, rate float64, count, idBase int, tr *Tracer, cut int) []*flow {
	due := Schedule(rng, rate, count)
	flows := make([]*flow, count)
	for i := range flows {
		var t *Tracer
		if i >= cut {
			t = tr
		}
		flows[i] = newFlow(rng, accounts, idBase+i, due[i], t)
	}
	return flows
}

// drive runs the loop's flows: each starts at its due time, or as soon as
// the loop is free after it, and the loop advances every flow in flight as
// its transaction results arrive. A limit above 0 closes the loop: a flow
// starts only while fewer than limit are in flight. An until above 0 stops
// starting flows at that offset from epoch; flows in flight still finish.
func (c *exLoop) drive(flows []*flow, onStart func(*flow), limit int, until time.Duration) {
	var (
		next     int
		inflight []*flow
		timer    = time.NewTimer(time.Hour)
	)
	defer timer.Stop()
	finish := func(f *flow, err error) {
		f.t.End = time.Since(c.epoch)
		f.cur.Pop()
		c.release(f)
		if err != nil {
			c.fail("exchange %d: %v", f.id, err)
		} else {
			c.done = append(c.done, f)
		}
	}
	for next < len(flows) || len(inflight) > 0 || len(c.parked) > 0 {
		now := time.Since(c.epoch)
		if until > 0 && now >= until {
			flows = flows[:next]
		}
		for next < len(flows) && flows[next].t.Due <= now && (limit == 0 || len(inflight)+len(c.parked) < limit) {
			f := flows[next]
			next++
			c.attempted++
			if onStart != nil {
				onStart(f)
			}
			if err := c.start(f); err != nil {
				finish(f, err)
				continue
			}
			inflight = append(inflight, f)
		}
		for len(c.parked) > 0 && len(c.free) > 0 {
			f := c.parked[0]
			c.parked = c.parked[1:]
			if _, err := c.open(f); err != nil {
				finish(f, err)
				continue
			}
			inflight = append(inflight, f)
		}
		cases := make([]reflect.SelectCase, 0, len(inflight)+1)
		if next < len(flows) && flows[next].t.Due > now {
			timer.Reset(flows[next].t.Due - now)
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)})
		}
		base := len(cases)
		for _, f := range inflight {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(f.wait)})
		}
		if len(cases) == 0 {
			continue
		}
		chosen, v, _ := reflect.Select(cases)
		if base > 0 && !timer.Stop() && chosen >= base {
			<-timer.C
		}
		if chosen < base {
			continue
		}
		i := chosen - base
		f := inflight[i]
		inflight = append(inflight[:i], inflight[i+1:]...)
		fin, parked, err := c.advance(f, v.Interface().(node.TxResult))
		switch {
		case fin || err != nil:
			finish(f, err)
		case !parked:
			inflight = append(inflight, f)
		}
	}
}

func runExchange(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	rep := &report{layer: map[string]float64{}}
	sys, err := core.NewTestSystem(1 << 12)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("exchange-data-%d-%d", cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tracer *Tracer
	if cfg.trace {
		tracer = NewTracer()
	}
	r, err := newExchangeRig(sys, dir, cfg.seed, tracer)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			r.node.Stop()
			r.d.Close()
		}
	}()
	piks := make([]pikFixture, pikPool)
	for i := range piks {
		if piks[i], err = makePiK(sys, rng); err != nil {
			return nil, err
		}
	}
	epoch := time.Now()
	loops := make([]*exLoop, clientLoops())
	for i := range loops {
		loops[i] = &exLoop{r: r, piks: piks, epoch: epoch, puts: map[storage.URI]bool{}}
		// The loops split the pool, so a fixture has one owner.
		for k := i; k < len(piks); k += len(loops) {
			loops[i].free = append(loops[i].free, k)
		}
	}
	// runLoops offers flows whose due times are relative to the call and
	// returns the offset of that call from epoch. limit and, when dur is
	// above 0, dur after the call are drive's limit and until.
	runLoops := func(flows []*flow, onStart func(*flow), limit int, dur time.Duration) time.Duration {
		base := time.Since(epoch)
		for _, f := range flows {
			f.t.Due += base
		}
		var until time.Duration
		if dur > 0 {
			until = base + dur
		}
		var wg sync.WaitGroup
		for i, l := range loops {
			var mine []*flow
			for j := i; j < len(flows); j += len(loops) {
				mine = append(mine, flows[j])
			}
			wg.Add(1)
			go func(l *exLoop) {
				defer wg.Done()
				l.drive(mine, onStart, limit, until)
			}(l)
		}
		wg.Wait()
		return base
	}
	// collect moves the loops' attempts and failures into the report and
	// returns the flows they completed, emptying the loops for the next
	// phase.
	collect := func() []*flow {
		var done []*flow
		for _, l := range loops {
			rep.attempted += l.attempted
			for _, f := range l.fails {
				rep.fail("%s", f)
			}
			done = append(done, l.done...)
			l.attempted, l.fails, l.done = 0, nil, nil
		}
		return done
	}

	// Warm-up: the open loop at the offered rate for warmSeconds, so lazy
	// set-up (verifier key preparation, the first blocks and WAL segment,
	// collecting set-up garbage) is not timed.
	warm := makeFlows(rng, r.accounts, exchangeRate, exchangeRate*warmSeconds, 1_000_000, nil, 0)
	runLoops(warm, nil, 0, 0)
	for _, l := range loops {
		if len(l.fails) > 0 {
			return nil, fmt.Errorf("warm-up exchanges failed: %v", l.fails)
		}
		l.attempted, l.done, l.puts, l.blobRep = 0, nil, map[storage.URI]bool{}, 0
	}

	// The window is an open loop followed by a saturation phase. The open
	// loop's offered load is a seeded Poisson pattern with a fixed count; a
	// traced run traces its flows from cut on. The saturation phase's flows
	// are all due at its start.
	satDur := cfg.window / satShare
	count := int(exchangeRate * (cfg.window - satDur).Seconds())
	cut := count
	if cfg.trace {
		cut = count / untracedShare
	}
	flows := makeFlows(rng, r.accounts, exchangeRate, count, 0, tracer, cut)
	sat := make([]*flow, int(satCap*satDur.Seconds()))
	for i := range sat {
		sat[i] = newFlow(rng, r.accounts, 2_000_000+i, 0, nil)
	}
	rep.setupEnd = endSetup()

	// The traced phase starts with flow cut: counters are read, hooks
	// start recording and the CPU profile starts.
	var (
		prof    *cpuProfile
		profErr error
		ns0     node.Stats
		ds0     snapshot.Stats
		is0     indexer.Stats
		rt0     runtimeSample
		es0     [4]uint64
	)
	onStart := func(f *flow) {
		if f.id != cut {
			return
		}
		ns0, ds0, is0, rt0 = r.node.Stats(), r.d.Stats(), r.ix.Stats(), readRuntime()
		es0[0], es0[1], es0[2], es0[3] = r.mkt.Chain.ExecStats()
		r.hooks.on.Store(true)
		prof, profErr = startProfile()
	}
	base := runLoops(flows, onStart, 0, 0)
	if profErr != nil {
		return nil, profErr
	}
	var attr *Attribution
	if prof != nil {
		if attr, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	r.hooks.on.Store(false)
	ns1, ds1, is1, rt1 := r.node.Stats(), r.d.Stats(), r.ix.Stats(), readRuntime()
	var es1 [4]uint64
	es1[0], es1[1], es1[2], es1[3] = r.mkt.Chain.ExecStats()
	done := collect()

	// Saturation: a closed loop of satInflight exchanges per client loop
	// for satDur. Blocks fill faster than the seal interval, so the rate
	// at which exchanges complete is bound by the node's seal-time
	// verification, execution, WAL and indexer work.
	satBase := runLoops(sat, nil, satInflight, satDur)
	satEnd := satBase + satDur
	satDone := collect()
	var satLat []float64
	satCount, satLast := 0, satBase
	for _, f := range satDone {
		satLat = append(satLat, ms(f.t.End-f.t.Start))
		if f.t.End <= satEnd {
			satCount++
			satLast = max(satLast, f.t.End)
		}
	}
	if n := len(satDone); n == len(sat) {
		rep.fail("saturation used all %d pre-drawn exchanges; raise satCap", n)
	}

	// Per-flow accounting and gates.
	var (
		lat, tracedLat, lags, commits, tracedCommits, gas []float64
		admit, lineUS, exUS                               []float64
		puts, blobRep                                     int
		last                                              time.Duration
	)
	for _, l := range loops {
		admit = append(admit, l.admit...)
		lineUS = append(lineUS, l.lineUS...)
		exUS = append(exUS, l.exUS...)
		puts += len(l.puts) + l.blobRep
		blobRep += l.blobRep
	}
	settles := map[uint64]map[int]int{}
	used := map[int]bool{}
	pikRep, maxSettles := 0, 0
	for _, f := range done {
		lags = append(lags, ms(f.t.Lag()))
		if f.t.End > last {
			last = f.t.End
		}
		if f.traced {
			tracedLat = append(tracedLat, ms(f.t.Latency()))
			tracedCommits = append(tracedCommits, f.commits...)
			gas = append(gas, float64(f.gas))
		} else {
			lat = append(lat, ms(f.t.Latency()))
			commits = append(commits, f.commits...)
		}
		if used[f.pik] {
			pikRep++
		}
		used[f.pik] = true
	}
	for _, f := range append(done, satDone...) {
		m := settles[f.settleBlock]
		if m == nil {
			m = map[int]int{}
			settles[f.settleBlock] = m
		}
		if m[f.pik]++; m[f.pik] > 1 {
			rep.fail("block %d settles π_k #%d twice", f.settleBlock, f.pik)
		}
		n := 0
		for _, k := range m {
			n += k
		}
		if n > maxSettles {
			maxSettles = n
		}
	}
	rep.peakRSS = peakRSSMB()
	if ev := r.node.Stats().ProofsEvicted; ev != 0 {
		rep.fail("seal-time verification evicted %d proofs", ev)
	}
	stopped = true
	if err := r.crashRecover(); err != nil {
		rep.fail("crash recovery: %v", err)
	}

	rep.ops = lat
	if satCount > 0 {
		rep.opsPerS = float64(satCount) / (satLast - satBase).Seconds()
	} else {
		rep.fail("no exchange completed in the saturation phase")
	}
	rep.metric("exchange_ms", "ms", lat)
	rep.metric("commit_ms", "ms", commits)
	rep.value("exchanges_per_s", "1/s", float64(len(done))/(last-base).Seconds())
	rep.metric("gen.lag_ms", "ms", lags)
	rep.value("saturation_per_s", "1/s", rep.opsPerS)
	rep.metric("saturation_ms", "ms", satLat)
	l := rep.layer
	l["input.accounts"] = exchangeAccounts
	l["input.pik_repeat_frac"] = float64(pikRep) / float64(len(done))
	l["input.blob_repeat_frac"] = float64(blobRep) / float64(puts)
	l["seal.max_settles_per_block"] = float64(maxSettles)
	rep.prop("accounts", "count", l["input.accounts"])
	rep.prop("offered_rate", "1/s", exchangeRate)
	rep.prop("pik_repeat_frac", "ratio", l["input.pik_repeat_frac"])
	rep.prop("blob_repeat_frac", "ratio", l["input.blob_repeat_frac"])
	rep.prop("max_settles_per_block", "count", l["seal.max_settles_per_block"])
	rep.tracer = tracer
	if !cfg.trace {
		return rep, nil
	}

	spans := tracer.Spans()
	ops := len(tracedLat)
	tc := Summarize(tracedCommits)
	l["commit_p50_ms"], l["commit_p99_ms"] = tc.Median, tc.Tail
	l["gen.lag_p99_ms"] = Summarize(lags).Tail
	l["node.admit_us"] = Summarize(admit).Median
	l["indexer.lineage_us"] = Summarize(lineUS).Median
	l["indexer.exchange_us"] = Summarize(exUS).Median
	l["storage.put_ms"] = Summarize(durationsMS(spans, "storage.put")).Median
	l["chain.gas_per_exchange"] = Summarize(gas).Median
	if blocks := float64(ns1.BlocksSealed - ns0.BlocksSealed); blocks > 0 {
		l["node.txs_per_block"] = float64(ns1.TxsIncluded-ns0.TxsIncluded) / blocks
		l["wal.syncs_per_block"] = float64(ds1.WAL.Syncs-ds0.WAL.Syncs) / blocks
		l["wal.appends_per_block"] = float64(ds1.WAL.Appends-ds0.WAL.Appends) / blocks
	}
	if blocks := float64(is1.Blocks - is0.Blocks); blocks > 0 {
		l["indexer.events_per_block"] = float64(is1.Events-is0.Events) / blocks
	}
	l["node.inclusion_p50_ms"] = ms(ns1.LatencyP50)
	l["node.inclusion_p99_ms"] = ms(ns1.LatencyP99)
	l["node.rejected"] = float64(ns1.Rejected - ns0.Rejected)
	l["seal.evicted"] = float64(ns1.ProofsEvicted - ns0.ProofsEvicted)
	l["snapshot.checkpoints"] = float64(ds1.Checkpoints - ds0.Checkpoints)
	committed, conflicts, serial := es1[1]-es0[1], es1[2]-es0[2], es1[3]-es0[3]
	if committed+serial > 0 {
		l["exec.serial_frac"] = float64(serial) / float64(committed+serial)
	}
	l["exec.conflicts"] = float64(conflicts)

	r.hooks.mu.Lock()
	var verMS []float64
	proofs, verTotal := 0, time.Duration(0)
	for _, v := range r.hooks.verify {
		if v.verified > 0 {
			verMS = append(verMS, ms(v.d))
			proofs += v.verified
			verTotal += v.d
		}
	}
	r.hooks.mu.Unlock()
	l["indexer.process_ms"] = Summarize(durationsMS(spans, "seal.indexer")).Median
	l["wal.hook_ms"] = Summarize(durationsMS(spans, "seal.wal")).Median
	vs := Summarize(verMS)
	l["seal.verify_ms_p50"], l["seal.verify_ms_p99"] = vs.Median, vs.Tail
	if proofs > 0 {
		l["seal.proofs_per_block"] = float64(proofs) / float64(len(verMS))
		l["seal.us_per_proof"] = us(verTotal) / float64(proofs)
	}
	cpuLayer(l, attr, ops)
	runtimeLayer(l, rt0, rt1, ops)
	if u, t := Summarize(lat).Median, Summarize(tracedLat).Median; u > 0 {
		l["trace.overhead_frac"] = t/u - 1
	}
	for _, b := range spanLayer(l, tracer) {
		rep.fail("trace: %s", b)
	}
	return rep, nil
}

// clientLoops is how many goroutines do client work: one per CPU, so the
// client never needs more processors than the machine has.
func clientLoops() int { return runtime.NumCPU() }
