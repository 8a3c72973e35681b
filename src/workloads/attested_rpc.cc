#include "workloads/attested_rpc.h"

#include <algorithm>

#include "attest/handshake.h"
#include "base/log.h"
#include "base/rng.h"
#include "libos/occlum_system.h"

namespace occlum::workloads {

namespace {

constexpr uint16_t kAttestPort = 7443;
/** RPC ops of the key-release service. */
constexpr uint32_t kOpReleaseKey = 1;
constexpr uint32_t kOpBulk = 2;
const char kSecretPath[] = "/secret.key";

void
advance_to(SimClock &clock, uint64_t wake, const char *what)
{
    OCC_CHECK_MSG(wake != ~0ull, what << ": stalled with no next event");
    OCC_CHECK_MSG(wake > clock.cycles(), what << ": wake not in future");
    clock.advance(wake - clock.cycles());
}

} // namespace

AttestedRpcReport
run_attested_rpc(const AttestedRpcOptions &options)
{
    AttestedRpcReport report;

    sgx::Platform platform;
    SimClock &clock = platform.clock();
    host::NetSim net(clock);
    host::HostFileStore server_files;
    host::HostFileStore client_files;

    ProgramBuild spin;
    if (options.background_sips > 0) {
        // Compute-bound SIPs on the server system: fodder for
        // faultsim's AEX storms while the attested RPC runs.
        spin = build_program(spec_kernel_source("mcf"));
        server_files.put("spin", spin.occlum);
    }

    libos::OcclumSystem::Config server_config;
    server_config.num_slots = 4;
    server_config.verifier_key = bench_verifier_key();
    server_config.isv_prod_id = 1;
    server_config.isv_svn = 2;
    libos::OcclumSystem::Config client_config = server_config;

    libos::OcclumSystem server_sys(platform, server_files, server_config,
                                   &net);
    libos::OcclumSystem client_sys(platform, client_files, client_config,
                                   &net);

    // The secret lives only in the server's encrypted FS; the point
    // of the scenario is that it crosses the wire solely inside
    // attested-channel records.
    Bytes secret;
    Rng secret_rng(options.seed ^ 0x5ec7e7ull);
    for (int i = 0; i < 4; ++i) {
        uint64_t word = secret_rng.next();
        for (int j = 0; j < 8; ++j) {
            secret.push_back(static_cast<uint8_t>(word >> (8 * j)));
        }
    }
    OCC_CHECK(server_sys.fs().write_file(kSecretPath, secret).ok());

    for (int i = 0; i < options.background_sips; ++i) {
        auto pid = server_sys.spawn("spin", {"spin"});
        OCC_CHECK_MSG(pid.ok(), pid.error().message);
    }

    // Mutual policies pinned to the peer's *actual* measurement and
    // the shared verifier signer (oesign-style MRSIGNER).
    crypto::Key128 vkey = bench_verifier_key();
    crypto::Sha256Digest signer =
        crypto::Sha256::digest(vkey.data(), vkey.size());
    attest::Policy server_policy;
    server_policy.allowed_measurements = {
        client_sys.enclave().measurement()};
    server_policy.allowed_signers = {signer};
    server_policy.min_isv_svn = 1;
    attest::Policy client_policy = server_policy;
    client_policy.allowed_measurements = {
        server_sys.enclave().measurement()};
    attest::Verifier server_verifier(platform, server_policy);
    attest::Verifier client_verifier(platform, client_policy);

    // Connect the two systems over NetSim.
    OCC_CHECK(net.listen(kAttestPort, 4));
    auto conn = net.connect(kAttestPort);
    OCC_CHECK_MSG(conn.ok(), conn.error().message);
    host::NetSim::Connection *server_conn = nullptr;
    while ((server_conn = net.try_accept(kAttestPort, clock.cycles())) ==
           nullptr) {
        advance_to(clock, net.next_accept_time(kAttestPort),
                   "attested_rpc accept");
    }

    attest::Transport client_transport(net, conn.value(), false,
                                       client_sys.enclave());
    attest::Transport server_transport(net, server_conn, true,
                                       server_sys.enclave());

    attest::EndpointConfig client_cfg;
    client_cfg.is_server = false;
    client_cfg.nonce_seed = options.seed * 2 + 1;
    attest::EndpointConfig server_cfg;
    server_cfg.is_server = true;
    server_cfg.nonce_seed = options.seed * 2 + 2;

    uint64_t t0 = clock.cycles();
    attest::HandshakeEndpoint client(platform, client_sys.enclave(),
                                     client_verifier,
                                     std::move(client_transport),
                                     client_cfg);
    attest::HandshakeEndpoint server(platform, server_sys.enclave(),
                                     server_verifier,
                                     std::move(server_transport),
                                     server_cfg);

    auto terminal = [](const attest::HandshakeEndpoint &endpoint) {
        return endpoint.established() || endpoint.failed();
    };
    while (!(terminal(client) && terminal(server))) {
        bool progress = server.step();
        progress |= client.step();
        if (options.background_sips > 0) {
            progress |= server_sys.step_round();
        }
        if (!progress) {
            uint64_t wake = std::min(client.next_event_time(),
                                     server.next_event_time());
            if (options.background_sips > 0) {
                wake = std::min(wake, server_sys.next_wake_time());
            }
            advance_to(clock, wake, "attested_rpc handshake");
        }
    }
    report.retransmits = client.retransmits() + server.retransmits();
    if (!client.established() || !server.established()) {
        // Fail closed: surface the first error, no channel, no keys.
        report.error = attest::attest_error_name(
            client.failed() ? client.error() : server.error());
        report.total_cycles = clock.cycles() - t0;
        return report;
    }
    report.handshake_cycles = std::max(client.handshake_cycles(),
                                       server.handshake_cycles());
    report.keys_match = client.keys() == server.keys();
    if (!report.keys_match) {
        report.error = "keys_mismatch";
        report.total_cycles = clock.cycles() - t0;
        return report;
    }

    // The encrypted RPC session over the derived keys.
    attest::SecureChannel client_channel(
        attest::RecordCodec(client.keys(), false, &clock,
                            options.plaintext),
        &client.transport());
    attest::SecureChannel server_channel(
        attest::RecordCodec(server.keys(), true, &clock,
                            options.plaintext),
        &server.transport());

    attest::RpcServer rpc_server(
        std::move(server_channel),
        [&](uint32_t op, const Bytes &payload) -> Result<Bytes> {
            if (op == kOpReleaseKey) {
                return server_sys.fs().read_file(kSecretPath);
            }
            if (op == kOpBulk) {
                (void)payload;
                return Bytes(options.response_bytes, 0x5a);
            }
            return Error(ErrorCode::kInval, "unknown rpc op");
        });
    attest::RpcClient rpc_client(std::move(client_channel));

    Bytes request_payload(options.request_bytes, 0x33);
    int issued = 0;
    int completed = 0;
    int inflight = 0;
    bool key_requested = false;
    bool failed = false;

    // The key-release call goes first; bulk traffic only starts once
    // the secret came back intact (and is windowed after that).
    while (!failed && (completed < options.requests ||
                       !report.secret_released)) {
        bool progress = false;
        if (!key_requested) {
            failed = rpc_client.call(kOpReleaseKey, {}) == 0;
            key_requested = true;
            progress = true;
        }
        while (!failed && report.secret_released &&
               inflight < options.window && issued < options.requests) {
            if (rpc_client.call(kOpBulk, request_payload) == 0) {
                failed = true;
                break;
            }
            ++issued;
            ++inflight;
            progress = true;
        }
        progress |= rpc_server.step();
        for (;;) {
            attest::RpcResponse response;
            attest::RpcClient::Poll poll = rpc_client.poll(response);
            if (poll == attest::RpcClient::Poll::kNeedMore) {
                break;
            }
            if (poll != attest::RpcClient::Poll::kResponse) {
                failed = true;
                break;
            }
            progress = true;
            if (response.status != 0) {
                failed = true;
                break;
            }
            if (response.id == 1) {
                report.secret_released = response.payload == secret;
                if (!report.secret_released) {
                    failed = true;
                }
            } else {
                --inflight;
                ++completed;
                report.payload_bytes +=
                    options.request_bytes + response.payload.size();
            }
        }
        if (options.background_sips > 0) {
            progress |= server_sys.step_round();
        }
        if (failed) {
            break;
        }
        if (!progress) {
            uint64_t wake = std::min(rpc_client.next_arrival(),
                                     rpc_server.channel().next_arrival());
            if (options.background_sips > 0) {
                wake = std::min(wake, server_sys.next_wake_time());
            }
            advance_to(clock, wake, "attested_rpc rpc phase");
        }
    }

    report.records =
        rpc_client.channel().codec().next_send_seq() +
        rpc_client.channel().codec().next_recv_seq();
    report.total_cycles = clock.cycles() - t0;
    if (failed) {
        attest::AttestError channel_error =
            rpc_client.failed() ? rpc_client.error()
                                : rpc_server.error();
        report.error = attest::attest_error_name(channel_error);
        if (report.error == "none") {
            report.error = "rpc_failed";
        }
        return report;
    }
    rpc_client.channel().transport().close();
    rpc_server.channel().transport().close();
    report.ok = true;
    return report;
}

} // namespace occlum::workloads
