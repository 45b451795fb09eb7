#include "gen/synthetic.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "aig/builder.h"
#include "base/rng.h"

namespace javer::gen {

namespace {

struct PendingProp {
  aig::Lit lit;
  std::string name;
};

}  // namespace

aig::Aig make_synthetic(const SyntheticSpec& spec) {
  if (spec.masked_fail_props > 0 && spec.det_fail_props == 0) {
    throw std::invalid_argument(
        "synthetic: masked failures require the deterministic shallow "
        "failure that masks them (det_fail_props >= 1)");
  }
  if (spec.fail_window_log2 + 1 >= spec.wrap_counter_bits) {
    throw std::invalid_argument(
        "synthetic: fail window must be well below the wrap counter range");
  }

  aig::Aig aig;
  aig::Builder b(aig);
  Rng rng(spec.seed);
  std::vector<PendingProp> props;

  // --- shared machinery ---
  aig::Word wcnt = b.latch_word(spec.wrap_counter_bits, Ternary::False, "wcnt");
  b.set_next(wcnt, b.inc_word(wcnt, aig::Lit::true_lit()));

  aig::Word scnt = b.latch_word(spec.sat_counter_bits, Ternary::False, "scnt");
  {
    aig::Lit frozen = scnt.back();  // top bit: saturate once set
    b.set_next(scnt, b.mux_word(frozen, scnt,
                                b.inc_word(scnt, aig::Lit::true_lit())));
  }

  std::vector<std::vector<aig::Lit>> rings(spec.rings);
  for (std::size_t r = 0; r < spec.rings; ++r) {
    rings[r].resize(spec.ring_size);
    for (std::size_t i = 0; i < spec.ring_size; ++i) {
      rings[r][i] = aig.add_latch(i == 0 ? Ternary::True : Ternary::False,
                                  "ring" + std::to_string(r) + "[" +
                                      std::to_string(i) + "]");
    }
    for (std::size_t i = 0; i < spec.ring_size; ++i) {
      aig.set_latch_next(rings[r][i],
                         rings[r][(i + spec.ring_size - 1) % spec.ring_size]);
    }
  }

  // --- true properties: ring adjacency ---
  const std::size_t ring_stride =
      std::max<std::size_t>(spec.ring_prop_stride, 1);
  for (std::size_t p = 0; p < spec.ring_props; ++p) {
    std::size_t r = p % std::max<std::size_t>(spec.rings, 1);
    std::size_t i = ((p / std::max<std::size_t>(spec.rings, 1)) * ring_stride) %
                    spec.ring_size;
    aig::Lit bad = b.land(rings[r][i], rings[r][(i + 1) % spec.ring_size]);
    props.push_back({~bad, "true:ring" + std::to_string(r) + "_adj" +
                               std::to_string(i)});
  }

  // --- true properties: identically-updated latch pairs ---
  for (std::size_t p = 0; p < spec.pair_props; ++p) {
    aig::Lit drive = aig.add_input("pair_in" + std::to_string(p));
    aig::Lit shared = wcnt[p % spec.wrap_counter_bits];
    aig::Lit f = b.lxor(drive, shared);
    aig::Lit aux = aig.add_latch(Ternary::False, "aux" + std::to_string(p));
    aig::Lit mirror =
        aig.add_latch(Ternary::False, "mirror" + std::to_string(p));
    aig.set_latch_next(aux, f);
    aig.set_latch_next(mirror, f);
    props.push_back({b.lequiv(aux, mirror), "true:pair" + std::to_string(p)});
  }

  // --- true properties: unreachable saturating-counter values ---
  const std::uint64_t slim = std::uint64_t{1} << (spec.sat_counter_bits - 1);
  const std::uint64_t stride = std::max<std::size_t>(spec.unreachable_stride, 1);
  for (std::size_t p = 0; p < spec.unreachable_props; ++p) {
    std::uint64_t u = slim + 1 + ((stride * p) % (slim - 1));
    aig::Lit mask_in = aig.add_input("mask_in" + std::to_string(p));
    aig::Lit mask =
        aig.add_latch(Ternary::False, "mask" + std::to_string(p));
    aig.set_latch_next(mask, mask_in);
    aig::Lit bad = b.land(b.eq_const(scnt, u), mask);
    props.push_back({~bad, "true:unreach" + std::to_string(p) + "_v" +
                               std::to_string(u)});
  }

  // --- true properties: twin shift-register equality chain ---
  if (spec.chain_props > 0) {
    aig::Lit chain_in = aig.add_input("chain_in");
    aig::Word sr1 = b.latch_word(spec.chain_depth, Ternary::False, "sr1");
    aig::Word sr2 = b.latch_word(spec.chain_depth, Ternary::False, "sr2");
    for (std::size_t i = 0; i < spec.chain_depth; ++i) {
      aig.set_latch_next(sr1[i], i == 0 ? chain_in : sr1[i - 1]);
      aig.set_latch_next(sr2[i], i == 0 ? chain_in : sr2[i - 1]);
    }
    aig::Lit mismatch = b.lxor(sr1.back(), sr2.back());
    for (std::size_t p = 0; p < spec.chain_props; ++p) {
      aig::Lit mask_in = aig.add_input("chain_mask_in" + std::to_string(p));
      aig::Lit mask =
          aig.add_latch(Ternary::False, "chain_mask" + std::to_string(p));
      aig.set_latch_next(mask, mask_in);
      props.push_back({~b.land(mismatch, mask),
                       "true:chain" + std::to_string(p)});
    }
  }

  // --- failing properties ---
  const std::uint64_t d0 = (std::uint64_t{1} << spec.fail_window_log2) - 1;
  if (spec.det_fail_props > 0) {
    props.push_back({~b.eq_const(wcnt, d0),
                     "dbg:det_wcnt_eq_" + std::to_string(d0)});
  }
  for (std::size_t p = 0; p < spec.input_fail_props; ++p) {
    std::uint64_t d = 1 + (p % d0);
    aig::Lit trig = aig.add_input("trig" + std::to_string(p));
    aig::Lit bad = b.land(b.eq_const(wcnt, d), trig);
    props.push_back(
        {~bad, "dbg:gated" + std::to_string(p) + "_d" + std::to_string(d)});
  }
  // Masked failures are triggered through a shared `stage` latch that is
  // set exactly when the deterministic shallow property fails
  // (wcnt == d0). Under the JA assumption wcnt != d0 the stage can
  // provably never rise (¬stage is one-step inductive), so the masked
  // properties hold locally with near-zero effort — while their global
  // counterexamples are deep (the stage arms at d0+1 but the failure
  // waits until wcnt wraps around to D_j).
  const std::uint64_t deep_base =
      std::uint64_t{1} << (spec.wrap_counter_bits - 1);
  if (spec.masked_fail_props > 0) {
    aig::Lit stage = aig.add_latch(Ternary::False, "stage");
    aig.set_latch_next(stage, b.lor(stage, b.eq_const(wcnt, d0)));
    for (std::size_t p = 0; p < spec.masked_fail_props; ++p) {
      std::uint64_t deep = deep_base + 1 + p;
      if (deep >= (std::uint64_t{1} << spec.wrap_counter_bits)) {
        throw std::invalid_argument("synthetic: too many masked properties");
      }
      aig::Lit armed =
          aig.add_latch(Ternary::False, "armed" + std::to_string(p));
      aig.set_latch_next(armed,
                         b.lor(armed, b.land(stage, b.eq_const(wcnt, deep))));
      props.push_back(
          {~armed, "masked:armed" + std::to_string(p) + "_D" +
                       std::to_string(deep)});
    }
  }

  if (spec.shuffle_properties) {
    for (std::size_t i = props.size(); i > 1; --i) {
      std::swap(props[i - 1], props[rng.below(i)]);
    }
  }
  for (const PendingProp& p : props) aig.add_property(p.lit, p.name);
  return aig;
}

aig::Aig make_ring(std::size_t size) {
  SyntheticSpec spec;
  spec.rings = 1;
  spec.ring_size = size;
  spec.ring_props = size;
  spec.pair_props = 0;
  spec.unreachable_props = 0;
  spec.shuffle_properties = false;
  return make_synthetic(spec);
}

aig::Aig single_component(const aig::Aig& aig) {
  aig::Aig copy = aig;
  const aig::Lit tie = copy.add_latch(Ternary::False, "tie");
  copy.set_latch_next(tie, tie);
  aig::Builder b(copy);
  for (aig::Property& p : copy.properties()) {
    // P ∨ tie folds to true when P is; ¬tie holds on every path too.
    p.lit = p.lit == aig::Lit::true_lit() ? ~tie : b.lor(p.lit, tie);
  }
  return copy;
}

std::vector<int> synthetic_expected_classes(const aig::Aig& aig) {
  std::vector<int> classes;
  classes.reserve(aig.num_properties());
  for (const aig::Property& p : aig.properties()) {
    if (p.name.rfind("dbg:", 0) == 0) {
      classes.push_back(1);
    } else if (p.name.rfind("masked:", 0) == 0) {
      classes.push_back(2);
    } else {
      classes.push_back(0);
    }
  }
  return classes;
}

}  // namespace javer::gen
