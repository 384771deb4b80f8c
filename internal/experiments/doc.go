// Package experiments reproduces the paper's operational arguments as
// eleven numbered, deterministic table generators: platform functionality
// coverage (E1, Fig. 1), per-device variant selection (E2, §III-A), the
// bit-width × hardware-support cliff (E3, §III-A), drift detection and
// telemetry cost (E4, §III-B), offline pay-per-query metering (E5,
// §III-C), federated learning under non-IID skew with compression and
// personalization (E6, §III-D), fragmented targets — compat matrix,
// portable VM and the edge–cloud split sweep (E7, §IV), watermark
// fidelity/robustness/capacity (E8, §V), model extraction and prediction
// poisoning (E9, §V), verifiable execution overhead (E10, §VI), and
// encrypted model storage cost (E11, §V).
//
// Every experiment consumes the same internal packages the platform's
// production paths use, so the tables double as executable documentation;
// cmd/experiments runs any subset from the command line. The tables print
// counts (multiplications, bytes, parameters) and the modelled clock, never
// a stopwatch reading: each table that used to time something names the
// bench/run.sh entry that measures it.
package experiments
