// Minimal ASCII chart rendering for the report views and trace studies, so
// reproduced figures can be eyeballed against the paper's plots directly in
// a terminal.
//
// Two chart types cover the paper's figures:
//   * LineChart  — one or more named series over a shared x axis
//                  (Figures 2/4/6 cumulative curves),
//   * BarChart   — grouped horizontal bars (Figure 11/12 IPC stacks).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bsp {

class LineChart {
 public:
  // `height` terminal rows for the plot area; `width` columns (x samples are
  // resampled to fit).
  LineChart(std::string title, unsigned width = 64, unsigned height = 16);

  // All series share x positions implicitly (index order).
  void add_series(std::string name, std::vector<double> values);
  void set_x_label(std::string label) { x_label_ = std::move(label); }
  // Fixes the y range (default: min/max over all series).
  void set_y_range(double lo, double hi);

  void print(std::ostream& os) const;

 private:
  struct Series {
    std::string name;
    std::vector<double> values;
  };
  std::string title_;
  std::string x_label_;
  unsigned width_, height_;
  bool fixed_range_ = false;
  double y_lo_ = 0, y_hi_ = 1;
  std::vector<Series> series_;
};

class BarChart {
 public:
  explicit BarChart(std::string title, unsigned width = 50);

  void add_bar(std::string label, double value);
  // Optional reference line (e.g. the base machine's IPC).
  void set_reference(double value) { reference_ = value; has_ref_ = true; }

  void print(std::ostream& os) const;

 private:
  struct Bar {
    std::string label;
    double value;
  };
  std::string title_;
  unsigned width_;
  double reference_ = 0;
  bool has_ref_ = false;
  std::vector<Bar> bars_;
};

}  // namespace bsp
