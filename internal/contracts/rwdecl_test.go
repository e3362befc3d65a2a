package contracts

import (
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

// exchangeWorld deploys the full contract suite — NFT, auction, verifier,
// escrow — with n funded traders, and returns a valid settle calldata
// builder (toy π_k relation kc = c + hv, as in TestEscrowLifecycle).
func exchangeWorld(t *testing.T, n int) (*chain.Chain, []chain.Address, func(id uint64) []byte) {
	t.Helper()
	tau := fr.NewElement(0xdef)
	srs, err := kzg.NewSRSFromSecret(64, &tau)
	if err != nil {
		t.Fatal(err)
	}
	cs := plonk.NewConstraintSystem(3)
	minusOne := fr.NewFromInt64(-1)
	cs.MustAddGate(plonk.Gate{QL: fr.One(), QR: fr.One(), QO: minusOne, A: 1, B: 2, C: 0})
	kcv, cv, hvv := fr.NewElement(30), fr.NewElement(10), fr.NewElement(20)
	pk, vk, err := plonk.Setup(cs, srs)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonk.Prove(pk, []fr.Element{kcv, cv, hvv})
	if err != nil {
		t.Fatal(err)
	}

	c := chain.New()
	if _, err := c.Deploy(DataNFTName, &DataNFT{}, DataNFTCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(AuctionName, NewClockAuction(DataNFTName), AuctionCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("pik-verifier", NewVerifier(vk), VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(EscrowName, NewEscrow("pik-verifier", 10), EscrowCodeSize); err != nil {
		t.Fatal(err)
	}
	traders := make([]chain.Address, n)
	for i := range traders {
		traders[i] = chain.AddressFromString(fmt.Sprintf("trader-%d", i))
		c.Faucet(traders[i], 10_000_000)
	}
	kcB, cB, hvB := kcv.Bytes(), cv.Bytes(), hvv.Bytes()
	settleArgs := func(id uint64) []byte {
		return EncodeArgs(U64(id), kcB[:], proof.Bytes(), kcB[:], cB[:], hvB[:])
	}
	return c, traders, settleArgs
}

// TestParallelBatchExchangeIdentity runs the paper's exchange workload —
// mints, transfers, approvals, escrow opens and settles, auction listings
// and bids — through SubmitBatch at width 8 on one chain and width 1 on
// another, and requires identical receipts, blocks and state. This is the
// real-contract counterpart of the chain package's randomized property
// test, exercising the DeclareRW implementations above.
func TestParallelBatchExchangeIdentity(t *testing.T) {
	const nTraders = 6
	serialC, traders, settleArgs := exchangeWorld(t, nTraders)
	parC, _, _ := exchangeWorld(t, nTraders) // same τ/SRS: both chains accept the same proof bytes
	parC.SetExecWorkers(8)

	nonces := make(map[chain.Address]uint64)
	mkTx := func(from chain.Address, contract, method string, value uint64, args []byte) chain.Transaction {
		tx := chain.Transaction{
			From: from, Contract: contract, Method: method,
			Args: args, Value: value, Nonce: nonces[from],
		}
		nonces[from]++
		return tx
	}
	openArgs := func(id uint64, seller chain.Address) []byte {
		cv, hvv := fr.NewElement(10), fr.NewElement(20)
		cB, hvB := cv.Bytes(), hvv.Bytes()
		return EncodeArgs(U64(id), seller[:], hvB[:], cB[:])
	}

	runRound := func(round int, txs []chain.Transaction) {
		t.Helper()
		serialOut := serialC.SubmitBatch(txs)
		parOut := parC.SubmitBatch(txs)
		for i := range txs {
			s, p := serialOut[i], parOut[i]
			if (s.Err == nil) != (p.Err == nil) ||
				(s.Err != nil && s.Err.Error() != p.Err.Error()) {
				t.Fatalf("round %d tx %d: err %v, serial %v", round, i, p.Err, s.Err)
			}
			if s.Receipt == nil {
				continue
			}
			if p.Receipt.GasUsed != s.Receipt.GasUsed ||
				string(p.Receipt.Return) != string(s.Receipt.Return) ||
				len(p.Receipt.Logs) != len(s.Receipt.Logs) {
				t.Fatalf("round %d tx %d: receipt diverged (%s.%s)", round, i, txs[i].Contract, txs[i].Method)
			}
			if (s.Receipt.Err == nil) != (p.Receipt.Err == nil) ||
				(s.Receipt.Err != nil && s.Receipt.Err.Error() != p.Receipt.Err.Error()) {
				t.Fatalf("round %d tx %d: receipt err %v, serial %v", round, i, p.Receipt.Err, s.Receipt.Err)
			}
		}
		sb, pb := serialC.SealBlock(), parC.SealBlock()
		if sb.Hash() != pb.Hash() {
			t.Fatalf("round %d: sealed hash diverged (state roots %s vs %s)", round, pb.StateRoot, sb.StateRoot)
		}
		for _, a := range traders {
			if serialC.BalanceOf(a) != parC.BalanceOf(a) || serialC.NonceOf(a) != parC.NonceOf(a) {
				t.Fatalf("round %d: account %s diverged", round, a)
			}
		}
	}

	// Round 1: every trader mints (ids 1..n, all grouped on nextId);
	// half open escrows toward their neighbor; two list auctions.
	var txs []chain.Transaction
	for i, tr := range traders {
		txs = append(txs, mkTx(tr, DataNFTName, "mint", 0,
			EncodeArgs([]byte(fmt.Sprintf("uri-%d", i)), []byte(fmt.Sprintf("commit-%d", i)))))
	}
	for i := 0; i < nTraders/2; i++ {
		seller := traders[(i+1)%nTraders]
		txs = append(txs, mkTx(traders[i], EscrowName, "open", uint64(1000+i), openArgs(uint64(i+1), seller)))
	}
	txs = append(txs,
		mkTx(traders[4], AuctionName, "create", 0, EncodeArgs(U64(5), U64(5000), U64(1000), U64(100))),
		mkTx(traders[5], AuctionName, "create", 0, EncodeArgs(U64(6), U64(4000), U64(2000), U64(50))),
	)
	runRound(1, txs)

	// Round 2: cross transfers, operator approvals for the auction, a
	// settle per open escrow (serial-only path), one premature refund
	// (reverts), one auction cancel.
	txs = nil
	auctionOp := chain.ContractAddress(AuctionName)
	for i := 0; i < 2; i++ {
		txs = append(txs, mkTx(traders[i], DataNFTName, "transfer",
			0, EncodeArgs(U64(uint64(i+1)), traders[(i+3)%nTraders][:])))
	}
	txs = append(txs,
		mkTx(traders[4], DataNFTName, "approve", 0, EncodeArgs(U64(5), auctionOp[:])),
		mkTx(traders[5], DataNFTName, "approve", 0, EncodeArgs(U64(6), auctionOp[:])),
	)
	for i := 0; i < nTraders/2; i++ {
		seller := traders[(i+1)%nTraders]
		txs = append(txs, mkTx(seller, EscrowName, "settle", 0, settleArgs(uint64(i+1))))
	}
	txs = append(txs,
		mkTx(traders[0], EscrowName, "refund", 0, EncodeArgs(U64(1))), // settled → reverts
		mkTx(traders[5], AuctionName, "cancel", 0, EncodeArgs(U64(6))),
	)
	runRound(2, txs)

	// Round 3: a bid (serial-only, cross-contract transferFrom), burns,
	// and a transform mixing declared parent reads with dynamic mints.
	txs = nil
	txs = append(txs,
		mkTx(traders[2], AuctionName, "bid", 6000, EncodeArgs(U64(5))),
		mkTx(traders[3], DataNFTName, "burn", 0, EncodeArgs(U64(4))),
		mkTx(traders[2], DataNFTName, "duplicate", 0,
			EncodeArgs(U64(3), []byte("uri-dup"), []byte("commit-dup"))),
	)
	runRound(3, txs)

	// The parallel chain must actually have speculated and committed work.
	speculated, committed, _, _ := parC.ExecStats()
	if speculated == 0 || committed == 0 {
		t.Fatalf("engine never speculated (speculated %d, committed %d)", speculated, committed)
	}
}

// TestVerifierSerialOnlyPreservesPreverification pins the engine contract
// that makes batch verification safe: pre-verification marks are consumed
// exactly once even when the consuming transactions run through the
// parallel engine, because verifier-reaching calls never speculate.
func TestVerifierSerialOnlyPreservesPreverification(t *testing.T) {
	ps := testProofSystem()
	c := chain.New()
	c.SetExecWorkers(4)
	v := NewVerifier(ps.vk)
	if _, err := c.Deploy("verifier", v, VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	senders := make([]chain.Address, 4)
	for i := range senders {
		senders[i] = chain.AddressFromString(fmt.Sprintf("v-sender-%d", i))
		c.Faucet(senders[i], 10_000_000)
	}
	pub := ps.public[0].Bytes()
	verifyArgs := EncodeArgs(ps.proof.Bytes(), pub[:])

	// Mark each call's digest once, as the seal-time batch checker would.
	for range senders {
		v.markPreverified(verifyDigest(verifyArgs), len(senders))
	}
	txs := make([]chain.Transaction, len(senders))
	for i, s := range senders {
		txs[i] = chain.Transaction{From: s, Contract: "verifier", Method: "verify", Args: verifyArgs, Nonce: 0}
	}
	out := c.SubmitBatch(txs)
	for i, o := range out {
		if o.Err != nil || o.Receipt.Err != nil {
			t.Fatalf("tx %d: %v %v", i, o.Err, o.Receipt.Err)
		}
	}
	// All four marks consumed: a fifth verify pays the full pairing cost.
	gasPre := out[0].Receipt.GasUsed
	extra := chain.Transaction{From: senders[0], Contract: "verifier", Method: "verify", Args: verifyArgs, Nonce: 1}
	r, err := c.Submit(extra)
	if err != nil {
		t.Fatal(err)
	}
	if r.Err != nil {
		t.Fatalf("unmarked verify failed: %v", r.Err)
	}
	if r.GasUsed <= gasPre {
		t.Fatalf("unmarked verify gas %d not above pre-verified %d — a speculation consumed a mark twice?", r.GasUsed, gasPre)
	}
}
