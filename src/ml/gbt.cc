#include "ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "support/hexfloat.h"
#include "support/logging.h"
#include "support/rng.h"

namespace ft {

double
GbtModel::Tree::eval(const std::vector<double> &x) const
{
    int n = 0;
    while (nodes[n].feature >= 0) {
        n = x[nodes[n].feature] <= nodes[n].threshold ? nodes[n].left
                                                      : nodes[n].right;
    }
    return nodes[n].value;
}

namespace {

constexpr int kMaxDepth = 4;
constexpr double kLearningRate = 0.3;
constexpr int kMinSamplesLeaf = 2;
constexpr int kThresholdsPerFeature = 8;

double
meanOf(const std::vector<double> &v, const std::vector<int> &rows)
{
    double s = 0.0;
    for (int r : rows)
        s += v[r];
    return rows.empty() ? 0.0 : s / static_cast<double>(rows.size());
}

} // namespace

int
GbtModel::buildNode(Tree &tree, const std::vector<std::vector<double>> &x,
                    const std::vector<double> &residual,
                    const std::vector<int> &rows, int depth,
                    Rng &rng) const
{
    const int id = static_cast<int>(tree.nodes.size());
    tree.nodes.emplace_back();
    tree.nodes[id].value = meanOf(residual, rows);

    if (depth >= kMaxDepth ||
        static_cast<int>(rows.size()) < 2 * kMinSamplesLeaf) {
        return id;
    }

    const int dims = static_cast<int>(x[rows[0]].size());
    double base_sse = 0.0;
    for (int r : rows) {
        double d = residual[r] - tree.nodes[id].value;
        base_sse += d * d;
    }

    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    for (int f = 0; f < dims; ++f) {
        // A constant feature can never split: every pivot puts all rows
        // on the <= side, so each threshold probe would burn two full
        // row scans for nothing. Detect it in one pass and skip the
        // scans — but still consume the pivot draws, so the RNG stream
        // (and with it every recorded determinism digest) is identical
        // to the scanning code path.
        double lo = x[rows[0]][f], hi = lo;
        for (int r : rows) {
            lo = std::min(lo, x[r][f]);
            hi = std::max(hi, x[r][f]);
        }
        if (lo == hi) {
            for (int t = 0; t < kThresholdsPerFeature; ++t)
                rng.index(rows.size());
            continue;
        }
        for (int t = 0; t < kThresholdsPerFeature; ++t) {
            // Threshold from a random sample's feature value.
            int pivot = rows[rng.index(rows.size())];
            double threshold = x[pivot][f];
            double sl = 0, sr = 0;
            int nl = 0, nr = 0;
            for (int r : rows) {
                if (x[r][f] <= threshold) {
                    sl += residual[r];
                    ++nl;
                } else {
                    sr += residual[r];
                    ++nr;
                }
            }
            if (nl < kMinSamplesLeaf || nr < kMinSamplesLeaf)
                continue;
            double ml = sl / nl, mr = sr / nr;
            double sse = 0.0;
            for (int r : rows) {
                double m = x[r][f] <= threshold ? ml : mr;
                double d = residual[r] - m;
                sse += d * d;
            }
            double gain = base_sse - sse;
            if (gain > best_gain) {
                best_gain = gain;
                best_feature = f;
                best_threshold = threshold;
            }
        }
    }
    if (best_feature < 0)
        return id;

    std::vector<int> left_rows, right_rows;
    for (int r : rows) {
        (x[r][best_feature] <= best_threshold ? left_rows : right_rows)
            .push_back(r);
    }
    tree.nodes[id].feature = best_feature;
    tree.nodes[id].threshold = best_threshold;
    int l = buildNode(tree, x, residual, left_rows, depth + 1, rng);
    int r = buildNode(tree, x, residual, right_rows, depth + 1, rng);
    tree.nodes[id].left = l;
    tree.nodes[id].right = r;
    return id;
}

GbtModel::Tree
GbtModel::buildTree(const std::vector<std::vector<double>> &x,
                    const std::vector<double> &residual,
                    const std::vector<int> &rows, Rng &rng) const
{
    Tree tree;
    buildNode(tree, x, residual, rows, 0, rng);
    return tree;
}

void
GbtModel::boost(const std::vector<std::vector<double>> &x,
                const std::vector<double> &y,
                const std::vector<uint64_t> *group,
                const GbtOptions &options, Rng &rng)
{
    std::vector<int> rows(x.size());
    std::iota(rows.begin(), rows.end(), 0);

    // Regression boosts from the label mean; ranking scores are relative,
    // so the rank objective boosts from zero.
    bias_ = group ? 0.0 : meanOf(y, rows);

    // Pair ranges for the rank objective: samples of one group occupy a
    // contiguous index range of the recording order? They need not — so
    // gather per-group row lists once up front.
    std::vector<std::vector<int>> group_rows;
    if (group) {
        std::vector<std::pair<uint64_t, int>> tagged;
        tagged.reserve(x.size());
        for (size_t i = 0; i < x.size(); ++i)
            tagged.emplace_back((*group)[i], static_cast<int>(i));
        std::stable_sort(tagged.begin(), tagged.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (size_t i = 0; i < tagged.size();) {
            size_t j = i;
            group_rows.emplace_back();
            while (j < tagged.size() &&
                   tagged[j].first == tagged[i].first) {
                group_rows.back().push_back(tagged[j].second);
                ++j;
            }
            i = j;
        }
    }

    std::vector<double> pred(x.size(), bias_);
    std::vector<double> residual(x.size());
    for (int t = 0; t < options.trees; ++t) {
        if (!group) {
            for (size_t i = 0; i < x.size(); ++i)
                residual[i] = y[i] - pred[i];
        } else {
            // Lambda gradients of the pairwise logistic loss: for every
            // within-group pair where y[i] > y[j], a force rho pushes
            // score(i) up and score(j) down, with rho shrinking as the
            // model already orders the pair correctly.
            std::fill(residual.begin(), residual.end(), 0.0);
            for (const std::vector<int> &g : group_rows) {
                for (size_t a = 0; a < g.size(); ++a) {
                    for (size_t b = a + 1; b < g.size(); ++b) {
                        int i = g[a], j = g[b];
                        if (y[i] == y[j])
                            continue;
                        if (y[i] < y[j])
                            std::swap(i, j);
                        double rho =
                            1.0 / (1.0 + std::exp(pred[i] - pred[j]));
                        residual[i] += rho;
                        residual[j] -= rho;
                    }
                }
            }
        }
        Tree tree = buildTree(x, residual, rows, rng);
        for (size_t i = 0; i < x.size(); ++i)
            pred[i] += kLearningRate * tree.eval(x[i]);
        trees_.push_back(std::move(tree));
    }
    trained_ = true;
}

void
GbtModel::fit(const std::vector<std::vector<double>> &x,
              const std::vector<double> &y, const GbtOptions &options,
              Rng &rng)
{
    FT_ASSERT(x.size() == y.size(), "GBT feature/label size mismatch");
    trees_.clear();
    trained_ = false;
    if (x.empty())
        return;
    boost(x, y, nullptr, options, rng);
}

void
GbtModel::fitRank(const std::vector<std::vector<double>> &x,
                  const std::vector<double> &y,
                  const std::vector<uint64_t> &group,
                  const GbtOptions &options, Rng &rng)
{
    FT_ASSERT(x.size() == y.size() && x.size() == group.size(),
              "GBT rank feature/label/group size mismatch");
    trees_.clear();
    trained_ = false;
    if (x.empty())
        return;
    boost(x, y, &group, options, rng);
}

double
GbtModel::predict(const std::vector<double> &x) const
{
    double p = bias_;
    for (const auto &tree : trees_)
        p += kLearningRate * tree.eval(x);
    return p;
}

std::string
GbtModel::serialize() const
{
    std::ostringstream oss;
    oss << "gbt v1 " << (trained_ ? 1 : 0) << ' ' << hexDouble(bias_)
        << ' ' << hexDouble(kLearningRate) << ' ' << trees_.size() << '\n';
    for (const Tree &tree : trees_) {
        oss << "tree " << tree.nodes.size() << '\n';
        for (const Node &n : tree.nodes) {
            oss << n.feature << ' ' << hexDouble(n.threshold) << ' '
                << hexDouble(n.value) << ' ' << n.left << ' ' << n.right
                << '\n';
        }
    }
    return oss.str();
}

void
GbtModel::reset()
{
    trees_.clear();
    trained_ = false;
    bias_ = 0.0;
}

bool
GbtModel::deserialize(std::string_view bytes)
{
    reset();

    std::istringstream iss{std::string(bytes)};
    std::string magic, version;
    int trained_flag = 0;
    double learning_rate = 0.0;
    size_t num_trees = 0;
    if (!(iss >> magic >> version >> trained_flag) || magic != "gbt" ||
        version != "v1" || !readDouble(iss, bias_) ||
        !readDouble(iss, learning_rate) || learning_rate != kLearningRate ||
        !(iss >> num_trees)) {
        reset();
        return false;
    }
    trees_.reserve(num_trees);
    for (size_t t = 0; t < num_trees; ++t) {
        std::string tag;
        size_t num_nodes = 0;
        if (!(iss >> tag >> num_nodes) || tag != "tree") {
            reset();
            return false;
        }
        Tree tree;
        tree.nodes.reserve(num_nodes);
        for (size_t n = 0; n < num_nodes; ++n) {
            Node node;
            if (!(iss >> node.feature) ||
                !readDouble(iss, node.threshold) ||
                !readDouble(iss, node.value) ||
                !(iss >> node.left >> node.right)) {
                reset();
                return false;
            }
            // Child indices must stay inside this tree and leaves must
            // be terminal, or eval() could walk out of bounds.
            const int limit = static_cast<int>(num_nodes);
            const bool leaf = node.feature < 0;
            if (!leaf && (node.left < 0 || node.left >= limit ||
                          node.right < 0 || node.right >= limit)) {
                reset();
                return false;
            }
            tree.nodes.push_back(node);
        }
        trees_.push_back(std::move(tree));
    }
    trained_ = trained_flag != 0;
    return true;
}

} // namespace ft
