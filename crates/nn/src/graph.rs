//! The model graph: an SSA list of operations.

use agequant_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::Executor;

/// Identifier of a node within one [`Model`].
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The node's index into [`Model`] storage.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A 2-D convolution layer's parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvLayer {
    /// Weights, OIHW layout.
    pub weights: Tensor,
    /// Per-output-channel bias.
    pub bias: Vec<f32>,
    /// Square stride.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl ConvLayer {
    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.weights.shape()[0]
    }

    /// Input channel count.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.weights.shape()[1]
    }

    /// Multiply–accumulate operations for one `[C, H, W]` input.
    #[must_use]
    pub fn macs_for(&self, input_shape: &[usize]) -> usize {
        let s = self.weights.shape();
        let (kh, kw) = (s[2], s[3]);
        let out_h = (input_shape[1] + 2 * self.pad - kh) / self.stride + 1;
        let out_w = (input_shape[2] + 2 * self.pad - kw) / self.stride + 1;
        s[0] * s[1] * kh * kw * out_h * out_w
    }
}

/// A fully-connected layer's parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearLayer {
    /// Weights, `[out_features, in_features]`.
    pub weights: Tensor,
    /// Per-output bias.
    pub bias: Vec<f32>,
}

/// One graph operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// The model input (exactly one per model, node 0).
    Input,
    /// 2-D convolution.
    Conv(ConvLayer),
    /// Fully-connected layer (flattens its input).
    Linear(LinearLayer),
    /// Rectified linear unit.
    Relu,
    /// Max pooling with square window and stride.
    MaxPool {
        /// Window edge length.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to a `[C]` vector.
    GlobalAvgPool,
    /// Elementwise addition of two equal-shaped inputs (residual join).
    Add,
    /// Channel-wise concatenation of two CHW inputs (fire-module join).
    Concat,
}

/// One node: an operation applied to earlier nodes' outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Operand node ids (all strictly earlier in the list).
    pub inputs: Vec<NodeId>,
}

/// A feed-forward CNN as an SSA operation list.
///
/// Node 0 is always [`Op::Input`]; the last node's output is the
/// logits vector. Graphs are built through [`Model::push`] calls by
/// the zoo and validated on construction.
///
/// # Example
///
/// ```
/// use agequant_nn::{ExactExecutor, NetArch};
/// use agequant_tensor::Tensor;
///
/// let model = NetArch::AlexNet.build(1);
/// let image = Tensor::zeros(&agequant_nn::INPUT_SHAPE);
/// let logits = model.run(&ExactExecutor, &image);
/// assert_eq!(logits.len(), agequant_nn::NUM_CLASSES);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    nodes: Vec<Node>,
}

impl Model {
    /// Starts a new model with its input node.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            nodes: vec![Node {
                op: Op::Input,
                inputs: Vec::new(),
            }],
        }
    }

    /// The model's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input node's id.
    #[must_use]
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }

    /// Appends a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an operand id is not strictly earlier, or the operand
    /// count mismatches the op's arity.
    pub fn push(&mut self, op: Op, inputs: &[NodeId]) -> NodeId {
        let arity = match op {
            Op::Input => 0,
            Op::Add | Op::Concat => 2,
            _ => 1,
        };
        assert_eq!(inputs.len(), arity, "{op:?} expects {arity} operand(s)");
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count fits u32"));
        for &i in inputs {
            assert!(
                i.index() < self.nodes.len(),
                "operand {i:?} not yet defined"
            );
        }
        assert!(
            !matches!(op, Op::Input),
            "models have exactly one input node"
        );
        self.nodes.push(Node {
            op,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// All nodes, in execution order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable node access (weight surgery: normalization, readout
    /// fitting).
    pub(crate) fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// Multiplies a weighted layer's weights and bias by `factor`
    /// (residual-branch down-weighting).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a conv/linear node.
    pub fn scale_weighted_layer(&mut self, id: NodeId, factor: f32) {
        match &mut self.nodes[id.index()].op {
            Op::Conv(layer) => {
                for v in layer.weights.data_mut() {
                    *v *= factor;
                }
                for b in &mut layer.bias {
                    *b *= factor;
                }
            }
            Op::Linear(layer) => {
                for v in layer.weights.data_mut() {
                    *v *= factor;
                }
                for b in &mut layer.bias {
                    *b *= factor;
                }
            }
            other => panic!("scale_weighted_layer on non-weighted node: {other:?}"),
        }
    }

    /// Ids and layers of all conv/linear nodes, in execution order —
    /// the quantization points of the model.
    #[must_use]
    pub fn weighted_layers(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Conv(_) | Op::Linear(_)))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Total MACs for one forward pass on an input of the given shape.
    #[must_use]
    pub fn macs(&self, input_shape: &[usize]) -> usize {
        // Dry-run shapes through the graph.
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.nodes.len());
        let mut total = 0usize;
        for node in &self.nodes {
            let shape = match &node.op {
                Op::Input => input_shape.to_vec(),
                Op::Conv(layer) => {
                    let is = &shapes[node.inputs[0].index()];
                    total += layer.macs_for(is);
                    let s = layer.weights.shape();
                    let out_h = (is[1] + 2 * layer.pad - s[2]) / layer.stride + 1;
                    let out_w = (is[2] + 2 * layer.pad - s[3]) / layer.stride + 1;
                    vec![s[0], out_h, out_w]
                }
                Op::Linear(layer) => {
                    total += layer.weights.len();
                    vec![layer.weights.shape()[0]]
                }
                Op::Relu => shapes[node.inputs[0].index()].clone(),
                Op::MaxPool { window, stride } => {
                    let is = &shapes[node.inputs[0].index()];
                    vec![
                        is[0],
                        (is[1] - window) / stride + 1,
                        (is[2] - window) / stride + 1,
                    ]
                }
                Op::GlobalAvgPool => vec![shapes[node.inputs[0].index()][0]],
                Op::Add => shapes[node.inputs[0].index()].clone(),
                Op::Concat => {
                    let a = &shapes[node.inputs[0].index()];
                    let b = &shapes[node.inputs[1].index()];
                    vec![a[0] + b[0], a[1], a[2]]
                }
            };
            shapes.push(shape);
        }
        total
    }

    /// Runs the model, returning the last node's output (logits).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches inside the graph.
    #[must_use]
    pub fn run<E: Executor + ?Sized>(&self, executor: &E, input: &Tensor) -> Tensor {
        self.run_traced(executor, input, |_, _| {})
    }

    /// Evaluates node `idx` given the outputs of all earlier nodes.
    fn eval_node<E: Executor + ?Sized>(
        &self,
        idx: usize,
        executor: &E,
        input: &Tensor,
        outputs: &[Tensor],
    ) -> Tensor {
        let node = &self.nodes[idx];
        let id = NodeId(idx as u32);
        match &node.op {
            Op::Input => input.clone(),
            Op::Conv(layer) => executor.conv2d(id, layer, &outputs[node.inputs[0].index()]),
            Op::Linear(layer) => executor.linear(id, layer, &outputs[node.inputs[0].index()]),
            Op::Relu => agequant_tensor::relu(&outputs[node.inputs[0].index()]),
            Op::MaxPool { window, stride } => {
                agequant_tensor::max_pool2d(&outputs[node.inputs[0].index()], *window, *stride)
            }
            Op::GlobalAvgPool => agequant_tensor::global_avg_pool(&outputs[node.inputs[0].index()]),
            Op::Add => outputs[node.inputs[0].index()].add(&outputs[node.inputs[1].index()]),
            Op::Concat => concat_channels(
                &outputs[node.inputs[0].index()],
                &outputs[node.inputs[1].index()],
            ),
        }
    }

    /// Runs the model, invoking `observe(node_id, output)` after every
    /// node — used by calibration to collect activation statistics.
    #[must_use]
    pub fn run_traced<E: Executor + ?Sized>(
        &self,
        executor: &E,
        input: &Tensor,
        mut observe: impl FnMut(NodeId, &Tensor),
    ) -> Tensor {
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        for idx in 0..self.nodes.len() {
            let value = self.eval_node(idx, executor, input, &outputs);
            observe(NodeId(idx as u32), &value);
            outputs.push(value);
        }
        outputs.pop().expect("model has at least the input node")
    }

    /// Resumes a run at node `from`, reusing the outputs of the nodes
    /// before it.
    ///
    /// `outputs` must hold at least the outputs of nodes `0..from` for
    /// `input` (a previous run's full output list qualifies); it is
    /// truncated to them, then nodes `from..` are evaluated and
    /// appended. Returns the logits. With `from` the input node and an
    /// empty `outputs` this is [`Model::run`], keeping every node's
    /// output. The result is bit-identical to a full run whenever the
    /// executor computes nodes before `from` as it did when `outputs`
    /// was filled.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` holds fewer than `from` outputs, or on shape
    /// mismatches inside the graph.
    pub fn run_from<'o, E: Executor + ?Sized>(
        &self,
        executor: &E,
        input: &Tensor,
        outputs: &'o mut Vec<Tensor>,
        from: NodeId,
    ) -> &'o Tensor {
        assert!(
            outputs.len() >= from.index(),
            "resuming at node {} needs the {} outputs before it, got {}",
            from.index(),
            from.index(),
            outputs.len()
        );
        outputs.truncate(from.index());
        for idx in from.index()..self.nodes.len() {
            let value = self.eval_node(idx, executor, input, outputs);
            outputs.push(value);
        }
        outputs.last().expect("model has at least the input node")
    }

    /// Data-dependent activation normalization (LSUV-style), the
    /// deployment analogue of folding batch normalization into the
    /// preceding conv/linear layer.
    ///
    /// Walks the graph once over `images`; at every weighted layer the
    /// per-output-channel mean and standard deviation of the raw
    /// pre-activation are folded into the layer's weights and bias so
    /// the layer emits zero-mean, unit-variance channels on the
    /// calibration set. Without this, randomly-initialized deep ReLU
    /// networks collapse to input-independent predictions (the mean
    /// direction dominates), which would make quantization-loss
    /// measurements meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty.
    pub fn normalize_activations(&mut self, images: &[Tensor]) {
        assert!(!images.is_empty(), "need calibration images");
        let mut acts: Vec<Vec<Tensor>> = vec![Vec::with_capacity(self.nodes.len()); images.len()];
        for idx in 0..self.nodes.len() {
            let mut outs: Vec<Tensor> = images
                .iter()
                .zip(&acts)
                .map(|(img, prior)| self.eval_node(idx, &crate::ExactExecutor, img, prior))
                .collect();
            if let Some((channels, per_channel)) = self.weighted_geometry(idx, &outs[0]) {
                // Per-channel statistics across images and positions.
                let count = (images.len() * per_channel) as f64;
                for c in 0..channels {
                    let mut sum = 0.0f64;
                    let mut sum_sq = 0.0f64;
                    for out in &outs {
                        for &v in &out.data()[c * per_channel..(c + 1) * per_channel] {
                            sum += f64::from(v);
                            sum_sq += f64::from(v) * f64::from(v);
                        }
                    }
                    let mean = sum / count;
                    let var = (sum_sq / count - mean * mean).max(0.0);
                    let std = var.sqrt().max(1e-3);
                    self.fold_channel_affine(idx, c, mean as f32, std as f32);
                    for out in &mut outs {
                        for v in &mut out.data_mut()[c * per_channel..(c + 1) * per_channel] {
                            *v = (*v - mean as f32) / std as f32;
                        }
                    }
                }
            }
            for (prior, out) in acts.iter_mut().zip(outs) {
                prior.push(out);
            }
        }
    }

    /// For a weighted node, the output-channel count and elements per
    /// channel of its output tensor.
    fn weighted_geometry(&self, idx: usize, sample_out: &Tensor) -> Option<(usize, usize)> {
        match &self.nodes[idx].op {
            Op::Conv(layer) => {
                let c = layer.out_channels();
                Some((c, sample_out.len() / c))
            }
            Op::Linear(layer) => Some((layer.weights.shape()[0], 1)),
            _ => None,
        }
    }

    /// Rescales output channel `c` of weighted node `idx`:
    /// `y ← (y − mean) / std`, folded into weights and bias.
    fn fold_channel_affine(&mut self, idx: usize, c: usize, mean: f32, std: f32) {
        match &mut self.nodes[idx].op {
            Op::Conv(layer) => {
                let per_out: usize = layer.weights.shape()[1..].iter().product();
                for v in &mut layer.weights.data_mut()[c * per_out..(c + 1) * per_out] {
                    *v /= std;
                }
                layer.bias[c] = (layer.bias[c] - mean) / std;
            }
            Op::Linear(layer) => {
                let in_f = layer.weights.shape()[1];
                for v in &mut layer.weights.data_mut()[c * in_f..(c + 1) * in_f] {
                    *v /= std;
                }
                layer.bias[c] = (layer.bias[c] - mean) / std;
            }
            _ => unreachable!("fold_channel_affine on unweighted node"),
        }
    }

    /// Convenience: argmax prediction for every image.
    #[must_use]
    pub fn predict_all<E: Executor + ?Sized>(&self, executor: &E, images: &[Tensor]) -> Vec<usize> {
        images
            .iter()
            .map(|img| agequant_tensor::argmax(&self.run(executor, img)))
            .collect()
    }
}

fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
    let (sa, sb) = (a.shape(), b.shape());
    assert_eq!(sa.len(), 3, "concat expects CHW");
    assert_eq!(
        &sa[1..],
        &sb[1..],
        "concat spatial mismatch: {sa:?} vs {sb:?}"
    );
    let mut data = Vec::with_capacity(a.len() + b.len());
    data.extend_from_slice(a.data());
    data.extend_from_slice(b.data());
    Tensor::from_vec(&[sa[0] + sb[0], sa[1], sa[2]], data)
}

#[cfg(test)]
mod tests {
    use agequant_tensor::Tensor;

    use crate::ExactExecutor;

    use super::*;

    fn tiny_conv(oc: usize, ic: usize, value: f32) -> ConvLayer {
        ConvLayer {
            weights: Tensor::filled(&[oc, ic, 3, 3], value),
            bias: vec![0.0; oc],
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn linear_graph_runs() {
        let mut m = Model::new("t");
        let input = m.input();
        let c1 = m.push(Op::Conv(tiny_conv(2, 3, 0.1)), &[input]);
        let r = m.push(Op::Relu, &[c1]);
        let g = m.push(Op::GlobalAvgPool, &[r]);
        let l = m.push(
            Op::Linear(LinearLayer {
                weights: Tensor::filled(&[4, 2], 1.0),
                bias: vec![0.0; 4],
            }),
            &[g],
        );
        assert_eq!(l.index(), 4);
        let out = m.run(&ExactExecutor, &Tensor::filled(&[3, 8, 8], 1.0));
        assert_eq!(out.shape(), &[4]);
        assert_eq!(m.weighted_layers().len(), 2);
    }

    #[test]
    fn residual_add_joins_branches() {
        let mut m = Model::new("res");
        let input = m.input();
        let c1 = m.push(Op::Conv(tiny_conv(3, 3, 0.0)), &[input]);
        let sum = m.push(Op::Add, &[c1, input]);
        let out = m.run(&ExactExecutor, &Tensor::filled(&[3, 4, 4], 2.0));
        assert_eq!(sum.index(), 2);
        // Zero conv + skip = identity on the input.
        assert_eq!(out.data()[0], 2.0);
    }

    #[test]
    fn concat_stacks_channels() {
        let mut m = Model::new("cat");
        let input = m.input();
        let c1 = m.push(Op::Conv(tiny_conv(2, 3, 0.1)), &[input]);
        let c2 = m.push(Op::Conv(tiny_conv(5, 3, 0.1)), &[input]);
        let _ = m.push(Op::Concat, &[c1, c2]);
        let out = m.run(&ExactExecutor, &Tensor::filled(&[3, 4, 4], 1.0));
        assert_eq!(out.shape(), &[7, 4, 4]);
    }

    #[test]
    fn macs_counts_weighted_ops() {
        let mut m = Model::new("m");
        let input = m.input();
        let _ = m.push(Op::Conv(tiny_conv(4, 3, 0.1)), &[input]);
        // 4 out × 3 in × 3×3 kernel × 8×8 output positions.
        assert_eq!(m.macs(&[3, 8, 8]), 4 * 3 * 9 * 64);
    }

    #[test]
    fn traced_run_sees_every_node() {
        let mut m = Model::new("trace");
        let input = m.input();
        let c = m.push(Op::Conv(tiny_conv(2, 3, 0.1)), &[input]);
        let _ = m.push(Op::Relu, &[c]);
        let mut seen = Vec::new();
        let _ = m.run_traced(&ExactExecutor, &Tensor::filled(&[3, 4, 4], 1.0), |id, _| {
            seen.push(id.index());
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn resumed_run_reuses_the_prefix_and_matches_a_full_run() {
        let model = crate::NetArch::SqueezeNet11.build(3);
        let image = crate::SyntheticDataset::generate(1, 5).images()[0].clone();
        let full = model.run(&ExactExecutor, &image);
        let mut outputs = Vec::new();
        assert_eq!(
            model.run_from(&ExactExecutor, &image, &mut outputs, model.input()),
            &full
        );
        assert_eq!(outputs.len(), model.nodes().len());
        for from in model.weighted_layers() {
            // Poison the suffix: a resumed run must recompute it.
            outputs[from.index()] = Tensor::zeros(&[1]);
            assert_eq!(
                model.run_from(&ExactExecutor, &image, &mut outputs, from),
                &full
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs the 2 outputs before it")]
    fn resuming_without_the_prefix_panics() {
        let mut m = Model::new("short");
        let input = m.input();
        let c = m.push(Op::Conv(tiny_conv(2, 3, 0.1)), &[input]);
        let r = m.push(Op::Relu, &[c]);
        let _ = m.run_from(
            &ExactExecutor,
            &Tensor::filled(&[3, 4, 4], 1.0),
            &mut vec![],
            r,
        );
    }

    #[test]
    #[should_panic(expected = "expects 2 operand")]
    fn add_arity_checked() {
        let mut m = Model::new("bad");
        let input = m.input();
        let _ = m.push(Op::Add, &[input]);
    }
}
