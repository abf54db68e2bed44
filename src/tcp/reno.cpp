#include "tcp/reno.hpp"

namespace trim::tcp {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kReno: return "TCP";
    case Protocol::kCubic: return "CUBIC";
    case Protocol::kDctcp: return "DCTCP";
    case Protocol::kL2dct: return "L2DCT";
    case Protocol::kTrim: return "TCP-TRIM";
    case Protocol::kVegas: return "Vegas";
    case Protocol::kGip: return "GIP";
  }
  return "?";
}

}  // namespace trim::tcp
