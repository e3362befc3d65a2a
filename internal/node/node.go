// Package node is ZKDET's serving layer on top of the chain substrate: a
// nonce-ordered mempool with admission control, a block-producer goroutine
// that drains the pool and seals blocks on a size/interval trigger, and a
// subscription bus so clients wait on inclusion instead of polling. It is
// the transaction-admission half of the node daemon (cmd/zkdet-node); the
// query half lives in internal/indexer.
package node

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/parallel"
)

// SealVerifier batch-verifies the proofs carried by the transactions of a
// block being sealed. Implementations fold all proofs into one pairing
// check and mark the valid ones pre-verified so execution skips the
// expensive per-proof pairing (see contracts.BlockProofChecker, which
// implements this structurally — the dependency points from the
// application layer down to the node, never the reverse). The returned
// error slice, when non-nil, has one entry per transaction; a non-nil
// entry flags a transaction whose proof fails verification, which the
// producer evicts instead of executing.
type SealVerifier interface {
	VerifyBatch(txs []*chain.Transaction) (verified int, errs []error)
}

// Config tunes the mempool and block producer.
type Config struct {
	// MaxPoolTxs caps pending+executing transactions; beyond it the pool
	// evicts the furthest-future transaction or rejects the newcomer.
	MaxPoolTxs int
	// MaxBlockTxs seals a block as soon as this many transactions have
	// executed since the last seal.
	MaxBlockTxs int
	// BlockInterval seals any executed-but-unsealed transactions on a
	// timer, bounding inclusion latency under light traffic.
	BlockInterval time.Duration
	// MaxGasLimit rejects transactions asking for more gas at admission.
	MaxGasLimit uint64
	// MaxNonceGap bounds how far ahead of the account nonce an explicit
	// transaction nonce may run.
	MaxNonceGap uint64
	// SealVerifier, when set, batch-verifies proof-carrying transactions
	// at seal time: valid proofs execute with their pairing check already
	// done (amortised over the block), invalid ones are evicted before
	// they waste block space.
	SealVerifier SealVerifier
	// ExecWorkers sets the chain's parallel execution width for block
	// batches (chain.SubmitBatch) — both locally produced and imported
	// blocks. 0 sizes it to the machine (parallel.Workers); 1 executes
	// each batch one transaction at a time.
	ExecWorkers int
}

// DefaultConfig returns the tuning used by the daemon.
func DefaultConfig() Config {
	return Config{
		MaxPoolTxs:    8192,
		MaxBlockTxs:   256,
		BlockInterval: 25 * time.Millisecond,
		MaxGasLimit:   chain.DefaultGasLimit,
		MaxNonceGap:   64,
	}
}

func (c *Config) sanitize() {
	d := DefaultConfig()
	if c.MaxPoolTxs <= 0 {
		c.MaxPoolTxs = d.MaxPoolTxs
	}
	if c.MaxBlockTxs <= 0 {
		c.MaxBlockTxs = d.MaxBlockTxs
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = d.BlockInterval
	}
	if c.MaxGasLimit == 0 {
		c.MaxGasLimit = d.MaxGasLimit
	}
	if c.MaxNonceGap == 0 {
		c.MaxNonceGap = d.MaxNonceGap
	}
	if c.ExecWorkers <= 0 {
		c.ExecWorkers = parallel.Workers()
	}
}

// executedTx pairs a pooled transaction with its execution outcome, parked
// until the next seal.
type executedTx struct {
	ptx     *poolTx
	receipt *chain.Receipt
	err     error
}

// Stats is a point-in-time snapshot of node counters.
type Stats struct {
	PoolSize     int
	Admitted     uint64
	Rejected     uint64
	Evicted      uint64
	BlocksSealed uint64
	// BlocksImported counts remotely sealed blocks replayed through
	// ImportBlock (zero outside cluster deployments).
	BlocksImported uint64
	TxsIncluded    uint64
	// Seal-time proof batching counters (zero unless a SealVerifier is
	// configured): transactions whose proofs were validated in a block
	// batch, and transactions evicted for carrying invalid proofs.
	ProofsPreverified uint64
	ProofsEvicted     uint64
	// Inclusion latency (admission → sealed block) percentiles over the
	// most recent window of included transactions.
	LatencyP50 time.Duration
	LatencyP99 time.Duration
}

// Node runs the mempool + block producer over a chain and publishes sealed
// blocks on its Bus.
type Node struct {
	cfg   Config
	chain *chain.Chain
	pool  *mempool
	bus   *Bus

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	mu                sync.Mutex
	running           bool   // guarded by mu
	blocksSealed      uint64 // guarded by mu
	blocksImported    uint64 // guarded by mu
	txsIncluded       uint64 // guarded by mu
	proofsPreverified uint64 // guarded by mu
	proofsEvicted     uint64 // guarded by mu
	latencies []time.Duration // guarded by mu; ring buffer of recent inclusion latencies
	latPos    int             // guarded by mu
}

const latencyWindow = 4096

// New creates a node over the chain. Call Start to begin producing blocks.
func New(c *chain.Chain, cfg Config) *Node {
	cfg.sanitize()
	n := &Node{
		cfg:   cfg,
		chain: c,
		pool:  newMempool(cfg, c),
		bus:   NewBus(),
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	// The bus republishes every sealed block — whether this node's
	// producer sealed it or someone called chain.SealBlock directly.
	c.OnSeal(n.bus.publish)
	// The chain-level worker count also drives ImportBlock replay, so
	// follower nodes re-execute remote blocks at the same width.
	c.SetExecWorkers(cfg.ExecWorkers)
	return n
}

// Bus returns the node's subscription bus.
func (n *Node) Bus() *Bus { return n.bus }

// Chain returns the underlying chain.
func (n *Node) Chain() *chain.Chain { return n.chain }

// Start launches the block producer.
func (n *Node) Start() {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return
	}
	n.running = true
	n.mu.Unlock()
	n.wg.Add(1)
	go n.run()
}

// Stop drains the pool into a final block and stops the producer.
func (n *Node) Stop() {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	n.mu.Unlock()
	close(n.quit)
	n.wg.Wait()
}

// Submit admits a transaction fire-and-forget; the result is observable via
// the bus or chain receipts.
func (n *Node) Submit(tx chain.Transaction) (chain.Hash, error) {
	ptx, err := n.pool.add(tx, false, false)
	if err != nil {
		return chain.Hash{}, err
	}
	n.wake()
	return ptx.hash, nil
}

// SubmitForResult admits a transaction (assigning the next account nonce
// when autoNonce) without blocking, returning the transaction exactly as
// pooled — nonce assigned, gas default applied — and a 1-buffered channel
// that will receive its terminal result. The p2p layer uses it to gossip
// the precise pooled bytes (so remote hashes match) while awaiting
// inclusion.
func (n *Node) SubmitForResult(tx chain.Transaction, autoNonce bool) (chain.Transaction, <-chan TxResult, error) {
	ptx, err := n.pool.add(tx, autoNonce, true)
	if err != nil {
		return chain.Transaction{}, nil, err
	}
	n.wake()
	return ptx.tx, ptx.done, nil
}

// SubmitAndWait admits a transaction (assigning the next account nonce when
// autoNonce) and blocks until it is sealed into a block, evicted, or the
// context ends.
func (n *Node) SubmitAndWait(ctx context.Context, tx chain.Transaction, autoNonce bool) (TxResult, error) {
	ptx, err := n.pool.add(tx, autoNonce, true)
	if err != nil {
		return TxResult{}, err
	}
	n.wake()
	select {
	case res := <-ptx.done:
		return res, res.Err
	case <-ctx.Done():
		// The transaction stays pooled; its result is dropped.
		return TxResult{TxHash: ptx.hash, Err: ErrWaitCanceled}, ErrWaitCanceled
	}
}

// NextNonce returns the nonce the pool would assign the sender next.
func (n *Node) NextNonce(a chain.Address) uint64 { return n.pool.NextNonce(a) }

// PendingSample returns up to max pooled transactions for gossip
// rebroadcast — the executable run of each sender's queue.
func (n *Node) PendingSample(max int) []chain.Transaction {
	return n.pool.pendingSample(max)
}

func (n *Node) wake() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// executeBatch runs seal-time proof verification (when configured) and
// execution over one popped batch, returning the executed transactions and
// releasing the batch's pool reservations.
func (n *Node) executeBatch(batch []*poolTx) []executedTx {
	execBatch := batch
	if sv := n.cfg.SealVerifier; sv != nil {
		// Batch-verify the block's proofs in one pairing check.
		// Valid proofs execute pre-verified (the contract charges
		// the amortised schedule and skips its own pairing);
		// transactions with invalid proofs are evicted here, so
		// they neither waste block space nor run an on-chain
		// verification doomed to revert.
		txs := make([]*chain.Transaction, len(batch))
		for i, ptx := range batch {
			txs[i] = &ptx.tx
		}
		verified, errs := sv.VerifyBatch(txs)
		var evicted int
		if len(errs) == len(batch) {
			kept := make([]*poolTx, 0, len(batch))
			for i, ptx := range batch {
				if errs[i] != nil {
					ptx.finish(TxResult{Err: errs[i]})
					evicted++
					continue
				}
				kept = append(kept, ptx)
			}
			execBatch = kept
		}
		n.mu.Lock()
		n.proofsPreverified += uint64(verified)
		n.proofsEvicted += uint64(evicted)
		n.mu.Unlock()
	}
	// Execute the whole batch through the parallel engine at the chain's
	// width (one transaction at a time for small batches or ExecWorkers ==
	// 1); outcomes are bit-identical to a per-transaction Submit loop by
	// the engine's identity contract.
	txs := make([]chain.Transaction, len(execBatch))
	for i, ptx := range execBatch {
		txs[i] = ptx.tx
	}
	outcomes := n.chain.SubmitBatch(txs)
	executed := make([]executedTx, 0, len(execBatch))
	for i, ptx := range execBatch {
		executed = append(executed, executedTx{ptx: ptx, receipt: outcomes[i].Receipt, err: outcomes[i].Err})
	}
	n.pool.markDone(batch)
	return executed
}

// sealExecuted seals the executed transactions into a block, records
// latency and counters, and delivers waiter results.
func (n *Node) sealExecuted(executed []executedTx) chain.Block {
	b := n.chain.SealBlock() // dispatches OnSeal hooks (bus, indexer)
	now := time.Now()
	n.mu.Lock()
	n.blocksSealed++
	n.txsIncluded += uint64(len(executed))
	for _, e := range executed {
		if e.err == nil {
			n.recordLatencyLocked(now.Sub(e.ptx.added))
		}
	}
	n.mu.Unlock()
	for _, e := range executed {
		if e.err != nil {
			e.ptx.finish(TxResult{Err: e.err})
			continue
		}
		e.ptx.finish(TxResult{Receipt: e.receipt, BlockNumber: b.Number})
	}
	return b
}

// run is the block producer: it drains executable transactions from the
// pool, executes them against the chain, and seals when MaxBlockTxs have
// accumulated or the interval expires with work pending.
func (n *Node) run() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.BlockInterval)
	defer ticker.Stop()
	var executed []executedTx

	seal := func() {
		if len(executed) == 0 {
			return
		}
		n.sealExecuted(executed)
		executed = executed[:0]
	}

	drain := func() {
		for {
			batch := n.pool.pop(n.cfg.MaxBlockTxs - len(executed))
			if len(batch) == 0 {
				return
			}
			executed = append(executed, n.executeBatch(batch)...)
			if len(executed) >= n.cfg.MaxBlockTxs {
				seal()
			}
		}
	}

	for {
		select {
		case <-n.kick:
			drain()
		case <-ticker.C:
			drain()
			seal()
		case <-n.quit:
			drain()
			seal()
			n.pool.drainAll(ErrNodeStopped)
			return
		}
	}
}

// SealNow synchronously drains up to one block's worth of executable
// transactions, executes them, and seals them into a block — the
// entry point for external block producers (a p2p cluster's leader
// rotation drives this instead of Start's free-running loop). ok is false
// when no transactions were executable, in which case no block is sealed.
// Do not mix with Start: a node is either self-sealing or externally
// driven.
func (n *Node) SealNow() (chain.Block, bool) {
	var executed []executedTx
	for len(executed) < n.cfg.MaxBlockTxs {
		batch := n.pool.pop(n.cfg.MaxBlockTxs - len(executed))
		if len(batch) == 0 {
			break
		}
		executed = append(executed, n.executeBatch(batch)...)
	}
	if len(executed) == 0 {
		return chain.Block{}, false
	}
	return n.sealExecuted(executed), true
}

// ImportBlock replays a remotely sealed block into the local chain and
// reconciles the mempool: transactions included by the remote sealer are
// purged from the pool (delivering their receipts to any local waiters),
// and transactions made unexecutable by the imported nonces are evicted.
// The chain's OnSeal hooks (bus, indexer) run exactly as for a locally
// sealed block, so every node indexes imported blocks identically.
func (n *Node) ImportBlock(b chain.Block, txs []chain.Transaction) ([]*chain.Receipt, error) {
	receipts, err := n.chain.ImportBlock(b, txs)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.blocksImported++
	n.mu.Unlock()
	n.pool.removeIncluded(txs, receipts, b.Number)
	return receipts, nil
}

func (n *Node) recordLatencyLocked(d time.Duration) {
	if len(n.latencies) < latencyWindow {
		n.latencies = append(n.latencies, d)
		return
	}
	n.latencies[n.latPos] = d
	n.latPos = (n.latPos + 1) % latencyWindow
}

// Stats snapshots the node counters.
func (n *Node) Stats() Stats {
	pool := n.pool
	pool.mu.Lock()
	s := Stats{
		PoolSize: pool.size,
		Admitted: pool.admitted,
		Rejected: pool.rejected,
		Evicted:  pool.evictions,
	}
	pool.mu.Unlock()

	n.mu.Lock()
	s.BlocksSealed = n.blocksSealed
	s.BlocksImported = n.blocksImported
	s.TxsIncluded = n.txsIncluded
	s.ProofsPreverified = n.proofsPreverified
	s.ProofsEvicted = n.proofsEvicted
	lats := append([]time.Duration(nil), n.latencies...)
	n.mu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		s.LatencyP50 = lats[len(lats)/2]
		s.LatencyP99 = lats[len(lats)*99/100]
	}
	return s
}
