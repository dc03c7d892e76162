// Tests for nic::Payload: the header classification a payload caches at
// construction must equal what proto::classify computes from its bytes, for
// every way a payload is built. proto::classify is the oracle; a seeded
// byte-mutation fuzzer (random header stacks, truncation at every header
// boundary, random byte flips) drives it, and the factory paths (gap
// frames, wire corruption) are checked the same way. The vswitch rewrite
// and rpc::FramePool paths are covered in vswitch_test and rpc_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/rate_control.hpp"
#include "nic/frame.hpp"
#include "proto/packet_view.hpp"
#include "wire/link.hpp"

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace mw = moongen::wire;

namespace {

/// Tiny deterministic PRNG for the fuzzer (independent of libc rand).
struct Xorshift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t pick(std::uint64_t n) { return next() % n; }
  std::uint8_t byte() { return static_cast<std::uint8_t>(next()); }
};

/// A generated frame plus the offsets where each header ends.
struct Generated {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> boundaries;
};

void put16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

void put_random(Xorshift& rng, std::vector<std::uint8_t>& b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) b.push_back(rng.byte());
}

/// Builds a random header stack: Ethernet, zero to three 802.1Q/802.1ad
/// tags (so S-tag-inner and triple-tag stacks reach classify's rejecting
/// paths), then IPv4 with 0–40 option bytes, IPv6, PTP-over-Ethernet, ARP
/// or an arbitrary EtherType; over IP, UDP (ports including PTP's and the
/// RPC port), TCP with options, ICMP or an arbitrary protocol; then a
/// random payload.
Generated gen_frame(std::uint64_t seed) {
  Xorshift rng{seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull};
  Generated g;
  auto& b = g.bytes;
  put_random(rng, b, 12);  // MACs
  const auto tags = rng.pick(8);  // 0-3 tags, untagged and single-tag most often
  const int ntags = tags < 3 ? 0 : tags < 5 ? 1 : tags < 7 ? 2 : 3;
  for (int t = 0; t < ntags; ++t) {
    put16(b, rng.pick(4) == 0 ? static_cast<std::uint16_t>(mp::EtherType::kQinQ)
                              : static_cast<std::uint16_t>(mp::EtherType::kVlan));
    g.boundaries.push_back(b.size());
    put16(b, static_cast<std::uint16_t>(rng.next()));  // TCI
  }
  std::uint8_t l4 = 0;
  switch (rng.pick(6)) {
    case 0:
    case 1: {  // IPv4, sometimes with options
      put16(b, static_cast<std::uint16_t>(mp::EtherType::kIPv4));
      g.boundaries.push_back(b.size());
      const std::uint8_t ihl = rng.pick(3) == 0 ? static_cast<std::uint8_t>(6 + rng.pick(10)) : 5;
      constexpr std::uint8_t kProtocols[] = {17, 17, 6, 1, 50, 255};
      l4 = kProtocols[rng.pick(6)];
      b.push_back(static_cast<std::uint8_t>(0x40 | ihl));
      put_random(rng, b, 8);
      b.push_back(l4);
      put_random(rng, b, 10 + (ihl - 5) * 4u);
      break;
    }
    case 2: {  // IPv6
      put16(b, static_cast<std::uint16_t>(mp::EtherType::kIPv6));
      g.boundaries.push_back(b.size());
      constexpr std::uint8_t kNextHeaders[] = {17, 6, 58, 0};
      l4 = kNextHeaders[rng.pick(4)];
      b.push_back(0x60);
      put_random(rng, b, 5);
      b.push_back(l4);
      put_random(rng, b, 33);
      break;
    }
    case 3:  // PTP over Ethernet
      put16(b, static_cast<std::uint16_t>(mp::EtherType::kPtp));
      g.boundaries.push_back(b.size());
      b.push_back(static_cast<std::uint8_t>(rng.pick(16)));
      b.push_back(2);
      put_random(rng, b, 32);
      break;
    case 4:
      put16(b, static_cast<std::uint16_t>(mp::EtherType::kArp));
      break;
    default:
      put16(b, static_cast<std::uint16_t>(rng.next()));
      break;
  }
  g.boundaries.push_back(b.size());
  if (l4 == 17) {
    put_random(rng, b, 2);
    constexpr std::uint16_t kPorts[] = {319, 320, 11211, 42};
    put16(b, rng.pick(5) == 0 ? static_cast<std::uint16_t>(rng.next()) : kPorts[rng.pick(4)]);
    put_random(rng, b, 4);
    g.boundaries.push_back(b.size());
  } else if (l4 == 6) {
    const std::uint8_t doff = static_cast<std::uint8_t>(5 + rng.pick(11));
    put_random(rng, b, 12);
    b.push_back(static_cast<std::uint8_t>(doff << 4));
    put_random(rng, b, 7 + (doff - 5) * 4u);
    g.boundaries.push_back(b.size());
  }
  put_random(rng, b, rng.pick(48));
  return g;
}

void expect_cached_matches_oracle(const std::vector<std::uint8_t>& bytes,
                                  const std::string& context) {
  const auto payload = mn::make_payload(bytes);
  ASSERT_EQ(payload->bytes(), bytes) << context;
  ASSERT_EQ(payload->packet_class(), mp::classify(bytes)) << context;
}

}  // namespace

TEST(Payload, FuzzedFramesCacheTheirClassification) {
  // Coverage books: the generator must reach every shape classify knows.
  int rejected = 0, qinq = 0, ipv4_options = 0, ipv6 = 0, ptp = 0, udp = 0, tcp = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    const Generated g = gen_frame(seed);
    const std::string ctx = "seed " + std::to_string(seed);
    expect_cached_matches_oracle(g.bytes, ctx);
    const auto pc = mp::classify(g.bytes);
    if (!pc.has_value()) {
      ++rejected;
    } else {
      qinq += pc->vlan_tags == 2;
      ipv4_options += pc->ether_type == mp::EtherType::kIPv4 && pc->l4_offset > pc->l3_offset + 20;
      ipv6 += pc->ether_type == mp::EtherType::kIPv6;
      ptp += pc->is_ptp_ethernet;
      udp += pc->is_udp;
      tcp += pc->l4_protocol == mp::IpProtocol::kTcp && pc->l7_offset != 0;
    }

    // Truncation at, just before and just after every header boundary.
    for (const std::size_t at : g.boundaries) {
      for (const std::size_t len : {at - 1, at, at + 1}) {
        if (len > g.bytes.size()) continue;
        expect_cached_matches_oracle({g.bytes.begin(), g.bytes.begin() + len},
                                     ctx + " truncated to " + std::to_string(len));
      }
    }

    // Byte flips, biased towards the header region.
    Xorshift rng{seed};
    for (int m = 0; m < 8; ++m) {
      std::vector<std::uint8_t> mutated = g.bytes;
      const std::size_t span = std::min<std::size_t>(mutated.size(), 80);
      const int flips = 1 + static_cast<int>(rng.pick(3));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.pick(span)] ^= static_cast<std::uint8_t>(1 + rng.pick(255));
      }
      expect_cached_matches_oracle(mutated, ctx + " mutation " + std::to_string(m));
    }
    if (::testing::Test::HasFailure()) break;  // first divergence is enough to debug
  }
  EXPECT_GT(rejected, 100);
  EXPECT_GT(qinq, 100);
  EXPECT_GT(ipv4_options, 100);
  EXPECT_GT(ipv6, 100);
  EXPECT_GT(ptp, 100);
  EXPECT_GT(udp, 100);
  EXPECT_GT(tcp, 100);
}

TEST(Payload, RandomBytesOfEveryShortLengthMatchTheOracle) {
  Xorshift rng{77};
  for (std::size_t len = 0; len <= 128; ++len) {
    for (int i = 0; i < 20; ++i) {
      std::vector<std::uint8_t> bytes;
      put_random(rng, bytes, len);
      expect_cached_matches_oracle(bytes, "length " + std::to_string(len));
    }
  }
}

TEST(Payload, GapFramesCarryTheirClassification) {
  for (std::size_t wire_len = 0; wire_len <= 1600; wire_len += 7) {
    const auto gap = mn::make_gap_frame(wire_len);
    EXPECT_EQ(gap.data->packet_class(), mp::classify(gap.data->bytes())) << wire_len;
    EXPECT_EQ(mn::make_gap_frame(wire_len).data, gap.data) << "interned " << wire_len;
  }
}

TEST(Payload, CorruptedCopyIsClassifiedAfterTheFlip) {
  const std::vector<mn::Frame> templates{
      mc::make_udp_frame({}), mc::make_udp_frame({.frame_size = 64, .vlan = true, .vlan_vid = 7}),
      mc::make_ptp_ethernet_frame(60)};
  std::mt19937_64 rng(11);
  int class_changed = 0;
  for (const auto& tmpl : templates) {
    const std::vector<std::uint8_t> original = tmpl.data->bytes();
    for (int i = 0; i < 2000; ++i) {
      mn::Frame frame = tmpl;
      mw::corrupt_frame(frame, rng);
      EXPECT_FALSE(frame.fcs_valid);
      ASSERT_NE(frame.data, tmpl.data);
      EXPECT_EQ(frame.data->packet_class(), mp::classify(frame.data->bytes()));
      class_changed += frame.data->packet_class() != tmpl.data->packet_class();
      std::size_t differing = 0;
      for (std::size_t b = 0; b < original.size(); ++b) differing += frame.data->bytes()[b] != original[b];
      EXPECT_EQ(differing, 1u);
    }
    EXPECT_EQ(tmpl.data->bytes(), original);  // the shared template is never touched
  }
  // Flips land in headers often enough that a stale class would show.
  EXPECT_GT(class_changed, 100);
}
