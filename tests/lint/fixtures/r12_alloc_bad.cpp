// Fixture: R12 hot-path-allocation positives: allocations in helpers
// reachable from hot-path roots (a forwarding node and a summary tap).
#include <memory>
#include <string>

struct PacketBuf {
  int* raw_new() { return new int[16]; }  // fires: 'new'
  std::unique_ptr<int> smart() { return std::make_unique<int>(7); }  // fires: make_unique
  std::string label() {
    std::string out;  // fires: owning std::string
    return out;
  }
};

struct FixtureNode {
  PacketBuf buf;
  void forward_packet() {
    delete[] buf.raw_new();
    buf.smart();
    buf.label();
  }
};

// The summary generator's per-packet taps are roots too.
struct DigestBuf {
  int* grow() { return new int[64]; }  // fires: 'new', reached from the tap
};

struct FixtureSummaryGenerator {
  DigestBuf digests;
  void on_forward() { delete[] digests.grow(); }
};
