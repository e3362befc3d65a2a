package bench

import (
	"fmt"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
)

// --- Execution layer: sealed tx/s, serial vs parallel batch execution ---
//
// This experiment characterizes the parallel transaction engine
// (chain.SubmitBatch): DataNFT transfers between disjoint client pairs — a
// conflict-light workload where every transaction's declared read/write set
// is private to its pair, so the scheduler puts each pair in its own group
// and the commit phase validates every speculation. Workers = 1 executes
// one transaction at a time; the engine's contract is that every width
// produces bit-identical blocks, so the only thing varying here is the
// clock.

// ExecRow is one point of the execution-throughput experiment.
type ExecRow struct {
	Clients  int
	Workers  int
	Txs      int
	Seconds  float64
	TxPerSec float64
	// Engine counters over the timed batches: transactions executed
	// speculatively, speculations that committed, commit-time conflicts,
	// and serial re-executions (fallbacks + serial-only).
	Speculated, Committed, Conflicts, Serial uint64
}

// ExecThroughput measures sealed transactions per second for a population
// of clients exchanging DataNFTs in disjoint pairs, executed with the given
// worker count. Each round is one block: every pair moves its token to the
// other side, so round r+1's transfers depend on round r's committed state.
// Setup (deploy, funding, the initial mints) is excluded from the clock.
func ExecThroughput(clients, workers, rounds int) (ExecRow, error) {
	if clients%2 != 0 {
		return ExecRow{}, fmt.Errorf("bench: clients must be even, got %d", clients)
	}
	c := chain.New()
	c.SetExecWorkers(workers)
	if _, err := c.Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
		return ExecRow{}, err
	}
	addrs := make([]chain.Address, clients)
	nonces := make([]uint64, clients)
	for i := range addrs {
		addrs[i] = chain.AddressFromString(fmt.Sprintf("exec-client-%06d", i))
		c.Faucet(addrs[i], 1_000_000_000)
	}

	// Setup: the even side of every pair mints the token the pair will
	// bounce. Run through the engine at the measured width (all mints
	// group on nextId, so this is also its serial-group warm-up).
	uri := []byte("bench-uri")
	commit := []byte("bench-commit")
	mints := make([]chain.Transaction, clients/2)
	for j := range mints {
		from := 2 * j
		mints[j] = chain.Transaction{
			From: addrs[from], Contract: contracts.DataNFTName, Method: "mint",
			Args:  contracts.EncodeArgs(uri, commit),
			Nonce: nonces[from],
		}
		nonces[from]++
	}
	tokens := make([]uint64, clients/2)
	for j, out := range c.SubmitBatch(mints) {
		if out.Err != nil {
			return ExecRow{}, out.Err
		}
		if out.Receipt.Err != nil {
			return ExecRow{}, out.Receipt.Err
		}
		id, err := contracts.DecU64(out.Receipt.Return)
		if err != nil {
			return ExecRow{}, err
		}
		tokens[j] = id
	}
	c.SealBlock()
	specBase, commBase, confBase, serBase := c.ExecStats()

	start := time.Now()
	total := 0
	for r := 0; r < rounds; r++ {
		txs := make([]chain.Transaction, clients/2)
		for j := range txs {
			from, to := 2*j, 2*j+1
			if r%2 == 1 {
				from, to = to, from
			}
			txs[j] = chain.Transaction{
				From: addrs[from], Contract: contracts.DataNFTName, Method: "transfer",
				Args:  contracts.EncodeArgs(contracts.U64(tokens[j]), addrs[to][:]),
				Nonce: nonces[from],
			}
			nonces[from]++
		}
		for i, out := range c.SubmitBatch(txs) {
			if out.Err != nil {
				return ExecRow{}, fmt.Errorf("round %d tx %d: %w", r, i, out.Err)
			}
			if out.Receipt.Err != nil {
				return ExecRow{}, fmt.Errorf("round %d tx %d: %w", r, i, out.Receipt.Err)
			}
		}
		c.SealBlock()
		total += len(txs)
	}
	elapsed := time.Since(start)

	spec, comm, conf, ser := c.ExecStats()
	return ExecRow{
		Clients:    clients,
		Workers:    workers,
		Txs:        total,
		Seconds:    elapsed.Seconds(),
		TxPerSec:   float64(total) / elapsed.Seconds(),
		Speculated: spec - specBase,
		Committed:  comm - commBase,
		Conflicts:  conf - confBase,
		Serial:     ser - serBase,
	}, nil
}

// ExecSweep runs ExecThroughput over the worker × client grid recorded in
// EXPERIMENTS.md. Rounds shrink as the population grows so every cell moves
// a comparable transaction volume.
func ExecSweep(clientSizes, workerCounts []int) ([]ExecRow, error) {
	rows := make([]ExecRow, 0, len(clientSizes)*len(workerCounts))
	for _, clients := range clientSizes {
		rounds := 4096 / clients
		if rounds < 2 {
			rounds = 2
		}
		for _, workers := range workerCounts {
			row, err := ExecThroughput(clients, workers, rounds)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
