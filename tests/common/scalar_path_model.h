// A DeviceModel that forwards every query to a TabularDeviceModel but
// hides its concrete type: tabular() returns nullptr. The engines batch
// device evaluations only through a concrete tabular model, so a ModelSet
// built from these wrappers drives the QWM engine and the transient
// simulator down their scalar per-device paths over the same table data.
// The batched-vs-scalar bit-exactness tests compare the two this way.
#pragma once

#include "qwm/device/model_set.h"
#include "qwm/device/tabular_model.h"
#include "test_models.h"

namespace qwm::test {

class ScalarPathModel : public device::DeviceModel {
 public:
  explicit ScalarPathModel(const device::TabularDeviceModel& inner)
      : inner_(inner) {}

  device::MosType mos_type() const override { return inner_.mos_type(); }
  double iv(double w, double l,
            const device::TerminalVoltages& v) const override {
    return inner_.iv(w, l, v);
  }
  device::IvEval iv_eval(double w, double l,
                         const device::TerminalVoltages& v) const override {
    return inner_.iv_eval(w, l, v);
  }
  double threshold(const device::TerminalVoltages& v) const override {
    return inner_.threshold(v);
  }
  double vdsat(double l, const device::TerminalVoltages& v) const override {
    return inner_.vdsat(l, v);
  }
  double src_cap(double w, double l) const override {
    return inner_.src_cap(w, l);
  }
  double snk_cap(double w, double l) const override {
    return inner_.snk_cap(w, l);
  }
  double input_cap(double w, double l) const override {
    return inner_.input_cap(w, l);
  }

 private:
  const device::TabularDeviceModel& inner_;
};

/// models().tabular_set() with both devices behind ScalarPathModel.
inline const device::ModelSet& scalar_path_set() {
  static const ScalarPathModel n(models().tabular_n);
  static const ScalarPathModel p(models().tabular_p);
  static const device::ModelSet ms{&n, &p, &models().proc};
  return ms;
}

}  // namespace qwm::test
