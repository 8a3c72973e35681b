#include "attest/handshake.h"

#include <algorithm>
#include <cstring>

#include "base/log.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace occlum::attest {

namespace {

/** EGETKEY label for the channel master-secret base key. */
const char kChannelKeyLabel[] = "occlum.attest.channel.v1";
/** Domain-separation labels for the key schedule. */
const char kMasterLabel[] = "occlum.attest.master";
const char kClientRoleLabel[] = "occlum.attest.client";
const char kServerRoleLabel[] = "occlum.attest.server";
const char kClientFinishLabel[] = "occlum.attest.finished.client";
const char kServerFinishLabel[] = "occlum.attest.finished.server";

constexpr size_t kRecvChunk = 4096;
/** Compact the reassembly buffer past this much consumed prefix. */
constexpr size_t kCompactThreshold = 64 * 1024;

trace::Counter &
hs_counter(const char *name)
{
    return trace::Registry::instance().counter(name);
}

void
update_str(crypto::Sha256 &hasher, const char *label)
{
    hasher.update(reinterpret_cast<const uint8_t *>(label),
                  std::strlen(label));
}

/**
 * finished_mac = HMAC(master, label || th_cs || SHA256(client
 * evidence bytes)): proves possession of the master secret over this
 * exact transcript and client credential — the key-confirmation step
 * that catches a cross-platform peer whose evidence parsed but whose
 * derived keys differ.
 */
crypto::Sha256Digest
finished_mac(const crypto::Sha256Digest &master, const char *label,
             const crypto::Sha256Digest &th_cs,
             const crypto::Sha256Digest &evidence_digest)
{
    crypto::HmacKey key(master.data(), master.size());
    crypto::Sha256 inner = key.begin();
    update_str(inner, label);
    inner.update(th_cs.data(), th_cs.size());
    inner.update(evidence_digest.data(), evidence_digest.size());
    return key.finish(inner);
}

Bytes
alert_frame(AttestError error)
{
    Bytes frame = frame_header(FrameType::kAlert, 1);
    frame.push_back(static_cast<uint8_t>(error));
    return frame;
}

} // namespace

// ---- Transport --------------------------------------------------------

Transport::Transport(host::NetSim &net, host::NetSim::Connection *conn,
                     bool at_server, sgx::Enclave &enclave)
    : net_(&net), conn_(conn), at_server_(at_server), enclave_(&enclave),
      clock_(&enclave.platform().clock())
{}

void
Transport::send_frame(const Bytes &frame)
{
    if (closed_) {
        return;
    }
    // Every network operation crosses the enclave boundary once.
    enclave_->charge_ocall();
    net_->send(conn_, at_server_, frame.data(), frame.size());
}

bool
Transport::pump()
{
    if (closed_ || poisoned_) {
        return false;
    }
    // Probe before paying: the readable check models the kernel's
    // poll-style readiness query, the OCALL is charged only when a
    // recv actually moves bytes.
    if (!net_->readable_now(conn_, at_server_, clock_->cycles())) {
        return false;
    }
    enclave_->charge_ocall();
    bool got = false;
    uint8_t chunk[kRecvChunk];
    for (;;) {
        uint64_t next_arrival = ~0ull;
        size_t n = net_->recv(conn_, at_server_, chunk, sizeof chunk,
                              clock_->cycles(), next_arrival);
        if (n == 0) {
            break;
        }
        rx_.insert(rx_.end(), chunk, chunk + n);
        got = true;
    }
    return got;
}

Transport::Pop
Transport::pop_frame(FrameType &type, Bytes &body, AttestError &err)
{
    if (poisoned_) {
        err = poison_error_;
        return Pop::kError;
    }
    size_t avail = rx_.size() - rx_pos_;
    if (avail < kFrameHeaderSize) {
        return Pop::kNeedMore;
    }
    uint32_t body_len = 0;
    AttestError parse = parse_frame_header(rx_.data() + rx_pos_, type,
                                           body_len);
    if (parse != AttestError::kNone) {
        // Garbage framing poisons the stream: byte boundaries can no
        // longer be trusted, so there is nothing to resync to.
        poisoned_ = true;
        poison_error_ = parse;
        err = parse;
        return Pop::kError;
    }
    if (avail < kFrameHeaderSize + body_len) {
        return Pop::kNeedMore;
    }
    const uint8_t *start = rx_.data() + rx_pos_ + kFrameHeaderSize;
    body.assign(start, start + body_len);
    rx_pos_ += kFrameHeaderSize + body_len;
    if (rx_pos_ >= kCompactThreshold) {
        rx_.erase(rx_.begin(),
                  rx_.begin() + static_cast<ptrdiff_t>(rx_pos_));
        rx_pos_ = 0;
    }
    return Pop::kFrame;
}

uint64_t
Transport::next_arrival() const
{
    if (closed_) {
        return ~0ull;
    }
    if (net_->readable_now(conn_, at_server_, clock_->cycles())) {
        return clock_->cycles();
    }
    return net_->next_arrival_time(conn_, at_server_);
}

bool
Transport::peer_drained() const
{
    // Closed here means the peer may have freed the connection too.
    return rx_pos_ == rx_.size() &&
           (closed_ || net_->is_drained(conn_, at_server_,
                                        clock_->cycles()));
}

void
Transport::close()
{
    if (!closed_) {
        net_->close(conn_, at_server_);
        closed_ = true;
    }
}

// ---- HandshakeEndpoint ------------------------------------------------

HandshakeEndpoint::HandshakeEndpoint(sgx::Platform &platform,
                                     sgx::Enclave &enclave,
                                     Verifier &verifier,
                                     Transport transport,
                                     EndpointConfig config)
    : platform_(&platform), enclave_(&enclave), verifier_(&verifier),
      transport_(std::move(transport)), config_(config),
      nonce_rng_(config.nonce_seed)
{
    start_cycles_ = platform_->clock().cycles();
    deadline_at_ = start_cycles_ + config_.deadline_cycles;
    if (config_.is_server) {
        state_ = State::kAwaitClientHello;
    } else {
        // Flight 1 goes out immediately; the retry timer covers it.
        nonce_c_ = make_nonce();
        client_hello_frame_ = frame_header(
            FrameType::kClientHello,
            static_cast<uint32_t>(nonce_c_.size()));
        client_hello_frame_.insert(client_hello_frame_.end(),
                                   nonce_c_.begin(), nonce_c_.end());
        send_flight(client_hello_frame_);
        state_ = State::kAwaitServerHello;
    }
}

Nonce
HandshakeEndpoint::make_nonce()
{
    Nonce nonce;
    for (size_t i = 0; i < nonce.size(); i += 8) {
        uint64_t word = nonce_rng_.next();
        for (size_t j = 0; j < 8; ++j) {
            nonce[i + j] = static_cast<uint8_t>(word >> (8 * j));
        }
    }
    return nonce;
}

void
HandshakeEndpoint::send_flight(const Bytes &frame)
{
    transport_.send_frame(frame);
    last_flight_ = frame;
    resend_at_ = platform_->clock().cycles() + config_.retry_cycles;
}

void
HandshakeEndpoint::fail(AttestError error, bool send_alert)
{
    if (state_ == State::kFailed) {
        return;
    }
    error_ = error;
    state_ = State::kFailed;
    resend_at_ = ~0ull;
    // Fail closed: tell the peer (best effort) and tear down — a
    // half-open endpoint holding partial key material is the bug
    // class this protocol exists to avoid.
    if (send_alert && !transport_.closed()) {
        transport_.send_frame(alert_frame(error));
    }
    transport_.close();
    static trace::Counter *failures =
        &hs_counter("attest.handshake_failures");
    failures->add();
    OCC_TRACE_INSTANT(kNet, "attest.handshake_fail",
                      static_cast<uint64_t>(error));
}

const SessionKeys &
HandshakeEndpoint::keys() const
{
    OCC_CHECK_MSG(state_ == State::kEstablished,
                  "session keys queried before establishment");
    return keys_;
}

void
HandshakeEndpoint::derive_session(const crypto::Sha256Digest &th_cs)
{
    // Base secret: EGETKEY-shaped platform key. Both enclaves on this
    // platform derive it; the host observing the full transcript
    // cannot. (Identity assurance comes from evidence verification,
    // not from this key — see the threat model in DESIGN.md §8.)
    Bytes label(kChannelKeyLabel,
                kChannelKeyLabel + sizeof kChannelKeyLabel - 1);
    crypto::Sha256Digest platform_key =
        enclave_->derive_platform_key(label);

    crypto::HmacKey base(platform_key.data(), platform_key.size());
    crypto::Sha256 inner = base.begin();
    update_str(inner, kMasterLabel);
    inner.update(th_cs.data(), th_cs.size());
    inner.update(nonce_c_.data(), nonce_c_.size());
    inner.update(nonce_s_.data(), nonce_s_.size());
    master_ = base.finish(inner);

    crypto::Sha256Digest d;
    d = crypto::hkdf_expand_label(master_, "key.c2s.enc");
    std::memcpy(keys_.enc_c2s.data(), d.data(), keys_.enc_c2s.size());
    d = crypto::hkdf_expand_label(master_, "key.s2c.enc");
    std::memcpy(keys_.enc_s2c.data(), d.data(), keys_.enc_s2c.size());
    keys_.mac_c2s = crypto::hkdf_expand_label(master_, "key.c2s.mac");
    keys_.mac_s2c = crypto::hkdf_expand_label(master_, "key.s2c.mac");
    d = crypto::hkdf_expand_label(master_, "key.c2s.iv");
    std::memcpy(keys_.iv_c2s.data(), d.data(), keys_.iv_c2s.size());
    d = crypto::hkdf_expand_label(master_, "key.s2c.iv");
    std::memcpy(keys_.iv_s2c.data(), d.data(), keys_.iv_s2c.size());
}

bool
HandshakeEndpoint::server_on_client_hello(const Bytes &body)
{
    if (state_ == State::kAwaitClientFinish) {
        // The client timed out waiting for our ServerHello and resent
        // its hello. Identical bytes get the identical reply — a
        // fresh nonce here would fork the transcript and doom the
        // handshake on a link that merely runs slow.
        Bytes frame = frame_header(FrameType::kClientHello,
                                   static_cast<uint32_t>(body.size()));
        frame.insert(frame.end(), body.begin(), body.end());
        if (frame == client_hello_frame_) {
            transport_.send_frame(server_hello_frame_);
            ++retransmits_;
            static trace::Counter *ctr =
                &hs_counter("attest.retransmits");
            ctr->add();
            return true;
        }
        fail(AttestError::kUnexpectedMessage, true);
        return true;
    }
    if (state_ != State::kAwaitClientHello) {
        fail(AttestError::kUnexpectedMessage, true);
        return true;
    }
    if (body.size() != nonce_c_.size()) {
        fail(AttestError::kBadLength, true);
        return true;
    }
    std::memcpy(nonce_c_.data(), body.data(), nonce_c_.size());
    // Replay gate before EREPORT: a replayed hello must not cost the
    // server an enclave round trip producing evidence for it.
    AttestError nonce_err = verifier_->consume_nonce(nonce_c_);
    if (nonce_err != AttestError::kNone) {
        fail(nonce_err, true);
        return true;
    }
    client_hello_frame_ = frame_header(
        FrameType::kClientHello, static_cast<uint32_t>(body.size()));
    client_hello_frame_.insert(client_hello_frame_.end(), body.begin(),
                               body.end());
    crypto::Sha256Digest th_c =
        crypto::Sha256::digest(client_hello_frame_);

    nonce_s_ = make_nonce();
    crypto::Sha256Digest binding =
        evidence_binding(kServerRoleLabel, th_c, nonce_s_);
    Evidence evidence;
    evidence.report = enclave_->create_report(
        Bytes(binding.begin(), binding.end()));
    Bytes evidence_bytes = evidence.serialize();

    Bytes body_s;
    body_s.insert(body_s.end(), nonce_s_.begin(), nonce_s_.end());
    body_s.insert(body_s.end(), evidence_bytes.begin(),
                  evidence_bytes.end());
    server_hello_frame_ = frame_header(
        FrameType::kServerHello, static_cast<uint32_t>(body_s.size()));
    server_hello_frame_.insert(server_hello_frame_.end(), body_s.begin(),
                               body_s.end());

    crypto::Sha256 th;
    th.update(client_hello_frame_);
    th.update(server_hello_frame_);
    th_cs_ = th.finish();

    send_flight(server_hello_frame_);
    state_ = State::kAwaitClientFinish;
    // Retransmission of ServerHello is duplicate-hello driven, not
    // timer driven: the client owns the retry timer for this exchange.
    resend_at_ = ~0ull;
    return true;
}

bool
HandshakeEndpoint::client_on_server_hello(const Bytes &body)
{
    if (state_ != State::kAwaitServerHello) {
        // A late duplicate from a server that resent; harmless.
        return true;
    }
    if (body.size() != nonce_s_.size() + Evidence::kWireSize) {
        fail(AttestError::kBadLength, true);
        return true;
    }
    std::memcpy(nonce_s_.data(), body.data(), nonce_s_.size());
    Bytes evidence_bytes(body.begin() +
                             static_cast<ptrdiff_t>(nonce_s_.size()),
                         body.end());
    Evidence evidence;
    AttestError parse = Evidence::parse(evidence_bytes, evidence);
    if (parse != AttestError::kNone) {
        fail(parse, true);
        return true;
    }
    crypto::Sha256Digest th_c =
        crypto::Sha256::digest(client_hello_frame_);
    crypto::Sha256Digest binding =
        evidence_binding(kServerRoleLabel, th_c, nonce_s_);
    AttestError verdict = verifier_->verify(evidence, binding);
    if (verdict != AttestError::kNone) {
        fail(verdict, true);
        return true;
    }
    // Symmetric replay defence: the client's verifier also remembers
    // every server nonce it ever accepted.
    AttestError nonce_err = verifier_->consume_nonce(nonce_s_);
    if (nonce_err != AttestError::kNone) {
        fail(nonce_err, true);
        return true;
    }
    peer_evidence_ = evidence;

    server_hello_frame_ = frame_header(
        FrameType::kServerHello, static_cast<uint32_t>(body.size()));
    server_hello_frame_.insert(server_hello_frame_.end(), body.begin(),
                               body.end());
    crypto::Sha256 th;
    th.update(client_hello_frame_);
    th.update(server_hello_frame_);
    th_cs_ = th.finish();

    derive_session(th_cs_);

    crypto::Sha256Digest my_binding =
        evidence_binding(kClientRoleLabel, th_cs_, nonce_c_);
    Evidence my_evidence;
    my_evidence.report = enclave_->create_report(
        Bytes(my_binding.begin(), my_binding.end()));
    Bytes my_evidence_bytes = my_evidence.serialize();
    finish_ev_digest_ = crypto::Sha256::digest(my_evidence_bytes);
    crypto::Sha256Digest mac = finished_mac(
        master_, kClientFinishLabel, th_cs_, finish_ev_digest_);

    Bytes body_f;
    body_f.insert(body_f.end(), my_evidence_bytes.begin(),
                  my_evidence_bytes.end());
    body_f.insert(body_f.end(), mac.begin(), mac.end());
    Bytes frame = frame_header(FrameType::kClientFinish,
                               static_cast<uint32_t>(body_f.size()));
    frame.insert(frame.end(), body_f.begin(), body_f.end());
    send_flight(frame);
    state_ = State::kAwaitServerFinish;
    return true;
}

bool
HandshakeEndpoint::server_on_client_finish(const Bytes &body)
{
    if (state_ == State::kEstablished) {
        // The client resent its finish because our ServerFinish was
        // slow; repeat it.
        transport_.send_frame(last_flight_);
        ++retransmits_;
        static trace::Counter *ctr = &hs_counter("attest.retransmits");
        ctr->add();
        return true;
    }
    if (state_ != State::kAwaitClientFinish) {
        fail(AttestError::kUnexpectedMessage, true);
        return true;
    }
    if (body.size() != Evidence::kWireSize + 32) {
        fail(AttestError::kBadLength, true);
        return true;
    }
    Bytes evidence_bytes(body.begin(),
                         body.begin() + Evidence::kWireSize);
    Evidence evidence;
    AttestError parse = Evidence::parse(evidence_bytes, evidence);
    if (parse != AttestError::kNone) {
        fail(parse, true);
        return true;
    }
    crypto::Sha256Digest binding =
        evidence_binding(kClientRoleLabel, th_cs_, nonce_c_);
    AttestError verdict = verifier_->verify(evidence, binding);
    if (verdict != AttestError::kNone) {
        fail(verdict, true);
        return true;
    }
    derive_session(th_cs_);
    finish_ev_digest_ = crypto::Sha256::digest(evidence_bytes);
    crypto::Sha256Digest expect = finished_mac(
        master_, kClientFinishLabel, th_cs_, finish_ev_digest_);
    crypto::Sha256Digest got;
    std::memcpy(got.data(), body.data() + Evidence::kWireSize,
                got.size());
    if (!crypto::digest_equal(expect, got)) {
        fail(AttestError::kBadFinishedMac, true);
        return true;
    }
    peer_evidence_ = evidence;

    crypto::Sha256Digest mac = finished_mac(
        master_, kServerFinishLabel, th_cs_, finish_ev_digest_);
    Bytes frame = frame_header(FrameType::kServerFinish,
                               static_cast<uint32_t>(mac.size()));
    frame.insert(frame.end(), mac.begin(), mac.end());
    // Plain send (not send_flight): retransmission of ServerFinish is
    // driven by duplicate ClientFinish frames, but last_flight_ must
    // hold it for that path.
    transport_.send_frame(frame);
    last_flight_ = frame;
    resend_at_ = ~0ull;
    state_ = State::kEstablished;
    handshake_cycles_ = platform_->clock().cycles() - start_cycles_;
    static trace::Counter *done =
        &hs_counter("attest.handshakes_completed");
    done->add();
    OCC_TRACE_INSTANT(kNet, "attest.handshake_established",
                      handshake_cycles_);
    return true;
}

bool
HandshakeEndpoint::client_on_server_finish(const Bytes &body)
{
    if (state_ != State::kAwaitServerFinish) {
        return true; // late duplicate
    }
    if (body.size() != 32) {
        fail(AttestError::kBadLength, true);
        return true;
    }
    crypto::Sha256Digest expect = finished_mac(
        master_, kServerFinishLabel, th_cs_, finish_ev_digest_);
    crypto::Sha256Digest got;
    std::memcpy(got.data(), body.data(), got.size());
    if (!crypto::digest_equal(expect, got)) {
        fail(AttestError::kBadFinishedMac, true);
        return true;
    }
    resend_at_ = ~0ull;
    state_ = State::kEstablished;
    handshake_cycles_ = platform_->clock().cycles() - start_cycles_;
    static trace::Counter *done =
        &hs_counter("attest.handshakes_completed");
    done->add();
    OCC_TRACE_INSTANT(kNet, "attest.handshake_established",
                      handshake_cycles_);
    return true;
}

bool
HandshakeEndpoint::process_frame(FrameType type, const Bytes &body)
{
    switch (type) {
      case FrameType::kClientHello:
        if (!config_.is_server) {
            fail(AttestError::kUnexpectedMessage, true);
            return true;
        }
        return server_on_client_hello(body);
      case FrameType::kServerHello:
        if (config_.is_server) {
            fail(AttestError::kUnexpectedMessage, true);
            return true;
        }
        return client_on_server_hello(body);
      case FrameType::kClientFinish:
        if (!config_.is_server) {
            fail(AttestError::kUnexpectedMessage, true);
            return true;
        }
        return server_on_client_finish(body);
      case FrameType::kServerFinish:
        if (config_.is_server) {
            fail(AttestError::kUnexpectedMessage, true);
            return true;
        }
        return client_on_server_finish(body);
      case FrameType::kAlert:
        // Peer failed closed; mirror it without echoing an alert back
        // (alert loops help nobody).
        fail(AttestError::kPeerAlert, false);
        return true;
      case FrameType::kRecord:
        // Records before both Finished messages means the peer thinks
        // the channel exists and we do not: unrecoverable skew.
        fail(AttestError::kUnexpectedMessage, true);
        return true;
    }
    fail(AttestError::kBadMagic, true);
    return true;
}

bool
HandshakeEndpoint::check_timers()
{
    uint64_t now = platform_->clock().cycles();
    if (now >= deadline_at_) {
        fail(AttestError::kTimeout, true);
        return true;
    }
    if (resend_at_ != ~0ull && now >= resend_at_ &&
        !last_flight_.empty()) {
        transport_.send_frame(last_flight_);
        ++retransmits_;
        resend_at_ = now + config_.retry_cycles;
        static trace::Counter *ctr = &hs_counter("attest.retransmits");
        ctr->add();
        return true;
    }
    return false;
}

bool
HandshakeEndpoint::step()
{
    if (state_ == State::kEstablished || state_ == State::kFailed) {
        // Established endpoints leave buffered/flighted records for
        // the SecureChannel that takes over the transport.
        return false;
    }
    bool progress = transport_.pump();
    for (;;) {
        FrameType type;
        Bytes body;
        AttestError err = AttestError::kNone;
        Transport::Pop pop = transport_.pop_frame(type, body, err);
        if (pop == Transport::Pop::kFrame) {
            progress |= process_frame(type, body);
            if (state_ == State::kEstablished ||
                state_ == State::kFailed) {
                break;
            }
            continue;
        }
        if (pop == Transport::Pop::kError) {
            fail(err, true);
            progress = true;
        }
        break;
    }
    if (state_ != State::kEstablished && state_ != State::kFailed) {
        if (transport_.peer_drained()) {
            fail(AttestError::kClosed, false);
            return true;
        }
        progress |= check_timers();
    }
    return progress;
}

uint64_t
HandshakeEndpoint::next_event_time() const
{
    if (state_ == State::kEstablished || state_ == State::kFailed) {
        return ~0ull;
    }
    uint64_t next = transport_.next_arrival();
    next = std::min(next, resend_at_);
    next = std::min(next, deadline_at_);
    return next;
}

// ---- SecureChannel ----------------------------------------------------

SecureChannel::SecureChannel(RecordCodec codec, Transport *transport)
    : codec_(std::move(codec)), transport_(transport)
{}

bool
SecureChannel::send(const Bytes &payload)
{
    if (failed_ || transport_->closed()) {
        return false;
    }
    transport_->send_frame(codec_.seal(payload));
    return true;
}

void
SecureChannel::poison(AttestError error, bool send_alert)
{
    failed_ = true;
    error_ = error;
    if (send_alert && !transport_->closed()) {
        transport_->send_frame(alert_frame(error));
    }
    transport_->close();
    static trace::Counter *ctr =
        &trace::Registry::instance().counter("attest.channel_poisoned");
    ctr->add();
    OCC_TRACE_INSTANT(kNet, "attest.channel_poisoned",
                      static_cast<uint64_t>(error));
}

SecureChannel::Recv
SecureChannel::recv(Bytes &payload_out)
{
    if (failed_) {
        return Recv::kFailed;
    }
    transport_->pump();
    for (;;) {
        FrameType type;
        Bytes body;
        AttestError err = AttestError::kNone;
        Transport::Pop pop = transport_->pop_frame(type, body, err);
        if (pop == Transport::Pop::kNeedMore) {
            if (transport_->peer_drained()) {
                error_ = AttestError::kClosed;
                return Recv::kClosed;
            }
            return Recv::kNeedMore;
        }
        if (pop == Transport::Pop::kError) {
            poison(err, true);
            return Recv::kFailed;
        }
        switch (type) {
          case FrameType::kRecord: {
            AttestError open_err = codec_.open(body, payload_out);
            if (open_err != AttestError::kNone) {
                // Fail closed: a forged or replayed record poisons
                // the channel rather than being skipped over.
                poison(open_err, true);
                return Recv::kFailed;
            }
            return Recv::kPayload;
          }
          case FrameType::kAlert:
            error_ = AttestError::kPeerAlert;
            failed_ = true;
            transport_->close();
            return Recv::kFailed;
          case FrameType::kClientFinish:
          case FrameType::kServerFinish:
            // Late handshake retransmissions racing the first records
            // on a slow link; the handshake already completed.
            continue;
          default:
            poison(AttestError::kUnexpectedMessage, true);
            return Recv::kFailed;
        }
    }
}

} // namespace occlum::attest
