// Package metering implements the offline pay-per-query machinery of
// §III-C: prepaid query packages ("vouchers") signed by the vendor, an
// on-device meter that enforces the quota without connectivity and records
// every charge in a hash chain, and a settlement protocol that lets the
// vendor verify usage and detect tampering (rollback, truncation, forged
// entries, forged vouchers, cross-device replay) when the device
// reconnects.
//
// The paper notes that metering is trivial behind a cloud endpoint and
// "not trivial on untrusted hardware" at the edge; the hash-chained local
// log plus chain-extension settlement is the standard offline-payment
// construction adapted to query counting. A voucher prepays queries, not a
// model version: the meter and its chain survive OTA updates and
// rollbacks, so staged rollouts never reset a customer's balance.
//
// Settlement crosses the platform's one real network endpoint, so the
// report is attacker-controlled input (§VI). It travels as one
// length-prefixed binary frame on internal/wire's strict cursor (frame.go)
// carrying the (seq, tick) pairs and the terminal chain head; the settler
// recomputes every hash in between from the head it stored. The server
// bounds each wait with a deadline and each frame with a size cap, and a
// report whose voucher does not verify changes nothing on record.
package metering
