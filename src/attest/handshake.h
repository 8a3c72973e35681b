/**
 * @file
 * The attested-channel bootstrap: a mutual challenge-response
 * handshake over NetSim sockets, after which both peers hold
 * identical directional session keys and talk through SecureChannel's
 * record layer.
 *
 * Message flow (evidence format in evidence.h, frames in channel.h):
 *
 *   client                                server
 *     | -- ClientHello { nonce_c } --------> |  consume nonce_c (replay gate)
 *     | <-- ServerHello { nonce_s,           |  evidence_s binds
 *     |       evidence_s } ----------------- |  SHA256(th_c, nonce_s)
 *     |  verify evidence_s                   |
 *     | -- ClientFinish { evidence_c,        |  verify evidence_c +
 *     |       finished_mac } --------------> |  key-confirmation MAC
 *     | <-- ServerFinish { finished_mac } -- |  server established
 *     |  client established                  |
 *
 * Key schedule: master = HMAC(platform_channel_key,
 * "master" || th_cs || nonce_c || nonce_s) where the platform channel
 * key comes from the EGETKEY-shaped sgx::Enclave::derive_platform_key
 * — both enclaves on one platform derive it, the untrusted host never
 * can. Directional enc/mac/iv keys expand from the master via
 * HMAC labels. The Finished MACs confirm both sides derived the same
 * master over the same transcript: a cross-platform peer (different
 * report key) or a transcript-splicing attacker fails key
 * confirmation even when its evidence parses.
 *
 * Fault behaviour (exercised by ci_faults.sh plan 5): flights are
 * retransmitted after kAttestRetryCycles (idempotently — a duplicate
 * ClientHello with identical bytes gets the stored ServerHello back,
 * not a fresh nonce), and the whole handshake fails *closed* at
 * kAttestHandshakeDeadlineCycles: the endpoint sends an Alert, closes
 * the connection, and never sits half-open holding keys.
 */
#ifndef OCCLUM_ATTEST_HANDSHAKE_H
#define OCCLUM_ATTEST_HANDSHAKE_H

#include <memory>

#include "attest/channel.h"
#include "attest/policy.h"
#include "base/rng.h"
#include "host/host.h"

namespace occlum::attest {

/**
 * Byte-stream framing over one side of a NetSim connection, run by
 * `enclave`. Owns the reassembly buffer (faultsim's short reads hand
 * frames over in arbitrary slivers) and takes one OCALL (the
 * enclave's EEXIT + EENTER) per network operation, as the LibOS does
 * for SIP socket syscalls.
 */
class Transport
{
  public:
    Transport(host::NetSim &net, host::NetSim::Connection *conn,
              bool at_server, sgx::Enclave &enclave);

    /** Ship one wire frame (header already included). */
    void send_frame(const Bytes &frame);

    /** Drain arrived bytes into the buffer; true if bytes landed. */
    bool pump();

    enum class Pop : uint8_t { kFrame, kNeedMore, kError };

    /**
     * Pop one complete frame off the buffer. kFrame fills type/body;
     * kNeedMore means a partial frame is still in flight; kError sets
     * `err` (framing violations are fail-closed, the buffer is
     * poisoned).
     */
    Pop pop_frame(FrameType &type, Bytes &body, AttestError &err);

    /** Earliest in-flight arrival toward this side (~0 if none). */
    uint64_t next_arrival() const;

    /** True if the peer closed and everything sent was consumed, or
     *  this side closed (the connection is then off limits). */
    bool peer_drained() const;

    void close();
    bool closed() const { return closed_; }

  private:
    host::NetSim *net_;
    host::NetSim::Connection *conn_;
    bool at_server_;
    sgx::Enclave *enclave_;
    SimClock *clock_;
    Bytes rx_;
    size_t rx_pos_ = 0;
    bool closed_ = false;
    bool poisoned_ = false;
    AttestError poison_error_ = AttestError::kNone;
};

/** Tuning knobs for one handshake endpoint. */
struct EndpointConfig {
    bool is_server = false;
    /** Seed for this endpoint's nonce stream (deterministic). */
    uint64_t nonce_seed = 1;
    uint64_t retry_cycles = CostModel::kAttestRetryCycles;
    uint64_t deadline_cycles = CostModel::kAttestHandshakeDeadlineCycles;
};

/**
 * One side of the handshake, driven as a non-blocking state machine:
 * the owner calls step() whenever simulated time advanced or traffic
 * may have arrived, and consults next_event_time() to know when the
 * endpoint next needs the clock (arrival, retransmit timer, or the
 * fail-closed deadline).
 */
class HandshakeEndpoint
{
  public:
    enum class State : uint8_t {
        kAwaitServerHello,  // client: hello sent
        kAwaitClientHello,  // server: listening
        kAwaitClientFinish, // server: hello sent
        kAwaitServerFinish, // client: finish sent
        kEstablished,
        kFailed,
    };

    HandshakeEndpoint(sgx::Platform &platform, sgx::Enclave &enclave,
                      Verifier &verifier, Transport transport,
                      EndpointConfig config);

    /** One pump-and-process pass; true if any progress was made. */
    bool step();

    /** Next cycle at which step() could do something (~0 if done). */
    uint64_t next_event_time() const;

    State state() const { return state_; }
    bool established() const { return state_ == State::kEstablished; }
    bool failed() const { return state_ == State::kFailed; }
    AttestError error() const { return error_; }

    /** Valid once established. */
    const SessionKeys &keys() const;
    const Evidence &peer_evidence() const { return peer_evidence_; }

    /** Simulated cycles from construction to establishment. */
    uint64_t handshake_cycles() const { return handshake_cycles_; }
    uint64_t retransmits() const { return retransmits_; }

    Transport &transport() { return transport_; }

  private:
    bool process_frame(FrameType type, const Bytes &body);
    bool client_on_server_hello(const Bytes &body);
    bool server_on_client_hello(const Bytes &frame_body);
    bool server_on_client_finish(const Bytes &body);
    bool client_on_server_finish(const Bytes &body);
    bool check_timers();
    void derive_session(const crypto::Sha256Digest &th_cs);
    void send_flight(const Bytes &frame);
    void fail(AttestError error, bool send_alert);
    Nonce make_nonce();

    sgx::Platform *platform_;
    sgx::Enclave *enclave_;
    Verifier *verifier_;
    Transport transport_;
    EndpointConfig config_;
    Rng nonce_rng_;

    State state_;
    AttestError error_ = AttestError::kNone;
    Nonce nonce_c_{};
    Nonce nonce_s_{};
    /** Transcript pieces (frame bytes; th_* are their digests). */
    Bytes client_hello_frame_;
    Bytes server_hello_frame_;
    crypto::Sha256Digest th_cs_{};
    crypto::Sha256Digest master_{};
    /** Digest of the ClientFinish evidence (both Finished MACs). */
    crypto::Sha256Digest finish_ev_digest_{};
    SessionKeys keys_{};
    Evidence peer_evidence_{};
    /** Last flight sent, for idempotent retransmission. */
    Bytes last_flight_;
    uint64_t resend_at_ = ~0ull;
    uint64_t deadline_at_ = ~0ull;
    uint64_t start_cycles_ = 0;
    uint64_t handshake_cycles_ = 0;
    uint64_t retransmits_ = 0;
};

/**
 * An established channel: RecordCodec over a Transport, fail-closed.
 * Any record-layer violation (bad MAC, stale sequence) poisons the
 * channel: an Alert goes out, the connection closes, and both send()
 * and recv() refuse further traffic — a corrupted or replayed record
 * is never delivered and never resynchronized over.
 */
class SecureChannel
{
  public:
    SecureChannel(RecordCodec codec, Transport *transport);

    enum class Recv : uint8_t { kPayload, kNeedMore, kClosed, kFailed };

    /** Seal + ship one payload; false if the channel is poisoned. */
    bool send(const Bytes &payload);

    /** Pump the transport and try to decode one payload. */
    Recv recv(Bytes &payload_out);

    bool failed() const { return failed_; }
    AttestError error() const { return error_; }
    uint64_t next_arrival() const { return transport_->next_arrival(); }
    Transport &transport() { return *transport_; }
    RecordCodec &codec() { return codec_; }

  private:
    void poison(AttestError error, bool send_alert);

    RecordCodec codec_;
    Transport *transport_;
    bool failed_ = false;
    AttestError error_ = AttestError::kNone;
};

} // namespace occlum::attest

#endif // OCCLUM_ATTEST_HANDSHAKE_H
