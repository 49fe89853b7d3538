package chaos

import (
	"testing"

	"udt"
	"udt/internal/netem"
)

// TestRunRealSecureImpaired drives the production stack — authenticated
// handshake, cookie exchange, sealed channel — through loss and asserts
// the transfer is bit-exact with the crypto counters in their expected
// states.
func TestRunRealSecureImpaired(t *testing.T) {
	psk := []byte("chaos runreal pre-shared key 32b")
	res, err := RunReal(RealConfig{
		Seed:    13,
		Payload: 1 << 20,
		Link:    netem.LinkConfig{Delay: 2000, Jitter: 1000, Loss: 0.01},
		UDT:     udt.Config{PSK: psk, AEAD: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("sealed transfer not bit-exact: %+v", res)
	}
	if res.Client.PktsRetrans == 0 {
		t.Fatal("1% loss produced no retransmissions")
	}
	if res.Server.CookieSent == 0 {
		t.Fatalf("secure dial skipped the cookie exchange: %+v", res.Server)
	}
	if res.Client.AuthRejects != 0 || res.Server.AuthRejects != 0 {
		t.Fatalf("impairment alone produced auth rejects: client=%+v server=%+v", res.Client, res.Server)
	}
}

func TestRunRealCleanLink(t *testing.T) {
	res, err := RunReal(RealConfig{Seed: 2, Payload: 1 << 20, Link: netem.LinkConfig{Delay: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("transfer not bit-exact: %+v", res)
	}
}
