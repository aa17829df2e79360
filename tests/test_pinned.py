"""Today's answers, pinned: default-grid fits, an OU prior grid and two
prior elicitations.

The values below were printed with ``"%.17g"`` by the code at commit
ffea201, before any change that this test guards, from the fixture built
here: one 30 x 20 design whose within-group gaps are drawn U(0.7, 1.3)
(``default_rng(7)``), one OU simulation on it (phi = 0.5, beta =
(1.0, 0.5), so p = 2, seed 11), the precision scale ``solve_psi(1 / 0.31,
0.01)``, and for each family the PC prior with median ICC 0.5.  Each fit
runs on the default 201 x 201 grid; the grid is the OU prior's 64-row
`density_grid`.

They are today's answers, not the exact ones: the fits carry the default
grid's quadrature error.  A change that moves any value beyond 1e-12
relative updates it here and records the old and new values in
CHANGES.md; the adaptive quadrature of ROADMAP item 1 will move the fits.

The simulated data are pinned bit for bit: the sha256 digests of the y
and X bytes of one `simulate_dataset` configuration per family, ragged
OU with positions included, were printed by the code at commit 1c1699f.
A reseeded or reordered draw stream changes them; a change that does so
on purpose updates them here and says why in CHANGES.md.

The elicitations in ``pinned_elicitations.json`` were printed by the code
at commit de4af97, before the inversion's start table grew to 641 nodes,
for the PC prior with median ICC 0.5 (a = 0.5) of OU on the benchmark's
200-transect field design and of exchangeable on `balanced_design(6, 50,
unit_positions=True)`: lambda, which is pinned bit for bit, then at 1e-12
relative the 99 quantiles at levels 0.01 .. 0.99, the 500 draws of
``sample(500, 1)`` and `normalization_mass`.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import field_transect_design
from grouppc import (
    GroupModel,
    GroupedDesign,
    HyperPriors,
    PCPrior,
    SimConfig,
    balanced_design,
    density_grid,
    icc_to_param,
    log_marginal_likelihood,
    normalization_mass,
    simulate_dataset,
    solve_psi,
)

RTOL = 1e-12
SUMMARY_KEYS = ["mean", "q025", "q975"]

FITS = {
    "exchangeable": {
        "log_mlik": -878.38682573932442,
        "rho": (0.19339130570100815, 0.10771418531275083,
                0.31296118585300353),
        "sigma2": (1.1562809554448323, 0.93989988865032581,
                   1.4182272915242498),
        "beta": [
            ("intercept", 1.0160462640509402, 0.8277448942144805,
             1.204346116137152),
            ("x1", 0.47819603368879737, 0.39724489914413857,
             0.55914250527278719),
        ],
        "diagnostics": (201, 201, 9.9105725694854796e-21, False),
    },
    "ar1": {
        "log_mlik": -765.20176498271792,
        "rho": (0.64590255320361645, 0.57343382745733595,
                0.71506262164749801),
        "sigma2": (1.1638213531191623, 0.92581955082393075,
                   1.4289828312944444),
        "beta": [
            ("intercept", 1.01890358719145, 0.84632601702277266,
             1.1916468393742532),
            ("x1", 0.50078696509680687, 0.44353617711238363,
             0.55797806336533118),
        ],
        "diagnostics": (201, 201, 3.0687360431971824e-70, False),
    },
    "ou": {
        "log_mlik": -764.99444463131499,
        "rho": (0.64412793960392878, 0.57116615919533187,
                0.71105594952664841),
        "sigma2": (1.1723190802498173, 0.93365399893207368,
                   1.4324551151029077),
        "beta": [
            ("intercept", 1.0101950466403882, 0.83746905487065815,
             1.1831379642540671),
            ("x1", 0.49416394606090208, 0.43741899919883437,
             0.55086535766500211),
        ],
        "diagnostics": (201, 201, 1.1243604598241259e-225, False),
    },
}

OU_GRID = {
    "param": [
        5.4950635588851263e-24, 1.3367356485753359e-23, 3.2517589196632356e-23,
        7.91026713687105e-23, 1.9242609222439499e-22, 4.6809798364658236e-22,
        1.1387006811866022e-21, 2.7700167200758847e-21, 6.7383753749090029e-21,
        1.6391851487429462e-20, 3.9875011443625611e-20, 9.7000423585379148e-20,
        2.3596437556000019e-19, 5.7400972568343428e-19, 1.3963428352149312e-18,
        3.3967600655801157e-18, 8.262998636251e-18, 2.0100668032030896e-17,
        4.8897122354751365e-17, 1.1894771709903078e-16, 2.893536208618263e-16,
        7.0388503409563259e-16, 1.7122790437117139e-15, 4.1653102161793981e-15,
        1.0132582805778675e-14, 2.4648640554348417e-14, 5.9960574003992029e-14,
        1.4586080019143049e-13, 3.5482270451693716e-13, 8.631458998955254e-13,
        2.0996989060233416e-12, 5.107752346954609e-12, 1.2425178659177856e-11,
        3.022563629274973e-11, 7.3527239676893262e-11, 1.7886323126967934e-10,
        4.3510480797070696e-10, 1.0584410925339193e-09, 2.5747762972084e-09,
        6.2634312173152838e-09, 1.5236496722675889e-08, 3.7064481803253889e-08,
        9.016349600227931e-08, 2.1933278480745976e-07, 5.335515216732388e-07,
        1.297923730507198e-06, 3.1573445895735015e-06, 7.6805937228788878e-06,
        1.8683902964134566e-05, 4.5450682924854214e-05, 0.00011056386785464847,
        0.00026895897021374173, 0.00065427276615843846, 0.0015915916550261258,
        0.0038717246496782817, 0.0094184030907602627, 0.022911318548289351,
        0.055734343981959596, 0.13558002314674061, 0.32981356490749336,
        0.80230837163421098, 1.9517048165525885, 4.7477401777520924,
        11.549408806223553,
    ],
    "distance": [
        173.61004004822928, 172.14451972720198, 170.66641538003387,
        169.1753971629193, 167.67112056580507, 166.15322548284746,
        164.62133520572371, 163.07505533182083, 161.51397257834299,
        159.93765349222465, 158.34564304444945, 156.73746309584513,
        155.11261071970478, 153.470556364548, 151.81074183800422,
        150.13257809005475, 148.43544277067937, 146.71867753319239,
        144.981585050137, 143.22342570337906, 141.4434139038386,
        139.64071398891457, 137.81443563681958, 135.96362872642209,
        134.0872775583783, 132.18429433778743, 130.25351179964437,
        128.29367483512735, 126.30343094810507, 124.28131933570816,
        122.22575834244684, 120.13503098159654, 118.00726814698567,
        115.84042904826455, 113.63227828690208, 111.38035883984818,
        109.08196002089859, 106.73407922926059, 104.33337594626742,
        101.87611596941012, 99.358103226147207, 96.77459561126112,
        94.120200024249954, 91.388739967919022, 88.573086425332491,
        85.664938813613361, 82.654536900654534, 79.53027549097709,
        76.278179509485341, 72.881174660973457, 69.318052960759118,
        65.561975056044815, 61.578260983034731, 57.321086093570464,
        52.728525021091571, 47.71527048154406, 42.16276335963633,
        35.909298140963031, 28.755241285504997, 20.54854438369475,
        11.589289679459942, 3.7886379230492153, 0.35195936152065727,
        0.0018850413135353349,
    ],
    "density": [
        1.584886424497899e+18, 7.1018708097113715e+17, 3.1849368561460397e+17,
        1.429526301389716e+17, 64218036803232944, 28873951547989048,
        12994244665550634, 5853334225352836, 2639219533936769.5,
        1191189075413934, 538186303059890.44, 243414155264918.31,
        110213693139263.41, 49959484795368.68, 22673056417473.168,
        10302199365913.352, 4687018946183.0596, 2135160972414.812,
        973987157534.87463, 444925654520.29877, 203543711815.27731,
        93258840506.503525, 42796895278.531693, 19672260754.572098,
        9058327818.5135155, 4178572518.9156828, 1931216900.7753685,
        894329098.85817969, 415021074.84901386, 193017360.69687197,
        89976085.470566496, 42045354.252257727, 19698360.089183282,
        9254013.7860710286, 4360054.1460139938, 2060614.3417841878,
        977091.02324480074, 464951.3844205495, 222089.0400975665,
        106517.46339039253, 51313.597128451162, 24838.533454761611,
        12086.186524268327, 5914.7964839864662, 2912.9352308701164,
        1444.6428394945135, 722.07676471886543, 364.10465337845619,
        185.44261943222736, 95.538304098485114, 49.881582949836556,
        26.456561307451853, 14.298907943755296, 7.9071693636004952,
        4.498185998121575, 2.6511890250168797, 1.6335279625075398,
        1.0626744429163426, 0.73430057471311283, 0.53003089329970221,
        0.35842233044520394, 0.14981718109903369, 0.014813999048016212,
        7.4624764766303598e-05,
    ],
    "cdf": [
        0.99990000000000001, 0.99989191490801188, 0.99988309811050191,
        0.99987347544968985, 0.99986296435475708, 0.999851472774828,
        0.99983889796095926, 0.99982512507335319, 0.99981002558586096,
        0.99979345545487719, 0.99977525301379255, 0.99975523654705112,
        0.99973320148928624, 0.99970891718466459, 0.99968212312904103,
        0.99965252460230958, 0.9996197875797892, 0.99958353278879342,
        0.99954332874868168, 0.99949868359835825, 0.9994490354727148,
        0.99939374113672641, 0.99933206252004714, 0.99926315071236393,
        0.99918602687572278, 0.99909955939830131, 0.99900243644639275,
        0.99889313285667414, 0.99876987003436069, 0.99863056716458054,
        0.99847278157696251, 0.99829363548950145, 0.99808972554524544,
        0.99785701047140407, 0.99759067073215624, 0.99728493206657809,
        0.99693284208896782, 0.9965259853691093, 0.99605411714297165,
        0.99550468833554739, 0.99486222384613865, 0.99410750040460039,
        0.99321644714833923, 0.99215865718860174, 0.99089534489624764,
        0.9893764997330865, 0.98753685289480297, 0.98529005164092531,
        0.98252006144166626, 0.97906816144902353, 0.97471271479741828,
        0.96913667048878949, 0.96187339684057804, 0.95221253106943715,
        0.93902844257187745, 0.92045124522536592, 0.89320179851690817,
        0.85118569973532765, 0.78249204086481239, 0.66383026129273015,
        0.45926918656927868, 0.18208298333704293, 0.018498864703077787,
        9.9999999999999951e-05,
    ],
}


def _design():
    gaps = np.random.default_rng(7).uniform(0.7, 1.3, size=(30, 19))
    pos = np.hstack([np.zeros((30, 1)), np.cumsum(gaps, axis=1)])
    return GroupedDesign((20,) * 30, positions=tuple(map(tuple, pos.tolist())))


def _prior(family, design):
    model = GroupModel(family)
    return model, PCPrior.from_quantile(model, design,
                                        icc_to_param(model, 0.5), 0.5)


@pytest.mark.parametrize("family", sorted(FITS))
def test_default_fit_is_pinned(family):
    design = _design()
    data = simulate_dataset(SimConfig(design, GroupModel("ou"), param=0.5,
                                      beta=(1.0, 0.5), seed=11))
    model, prior = _prior(family, design)
    got = log_marginal_likelihood(
        data, model, HyperPriors(prior, solve_psi(1.0 / 0.31, 0.01))
    ).to_json_dict()
    want = FITS[family]
    n_tau, n_corr, boundary, warning = want["diagnostics"]
    assert got["diagnostics"]["n_tau"] == n_tau
    assert got["diagnostics"]["n_corr"] == n_corr
    assert got["diagnostics"]["boundary_warning"] is warning
    np.testing.assert_allclose(got["diagnostics"]["boundary_mass"], boundary,
                               rtol=RTOL, atol=0)
    np.testing.assert_allclose(got["log_mlik"], want["log_mlik"],
                               rtol=RTOL, atol=0)
    for key in ("rho", "sigma2"):
        assert list(got[key]) == SUMMARY_KEYS
        np.testing.assert_allclose(list(got[key].values()), want[key],
                                   rtol=RTOL, atol=0)
    assert [b["name"] for b in got["beta"]] == [b[0] for b in want["beta"]]
    for b, (_, *values) in zip(got["beta"], want["beta"]):
        assert list(b) == ["name"] + SUMMARY_KEYS
        np.testing.assert_allclose([b[k] for k in SUMMARY_KEYS], values,
                                   rtol=RTOL, atol=0)


def test_ou_prior_grid_is_pinned():
    _, prior = _prior("ou", _design())
    grid = density_grid(prior, 64)
    assert len(grid) == 64
    for name, values in OU_GRID.items():
        np.testing.assert_allclose(getattr(grid, name), values,
                                   rtol=RTOL, atol=0, err_msg=name)


ELICITATIONS = json.loads(
    (Path(__file__).parent / "pinned_elicitations.json").read_text())


@pytest.mark.parametrize("case", sorted(ELICITATIONS))
def test_prior_elicitation_is_pinned(case):
    family, design = {
        "ou_transect": ("ou", field_transect_design()),
        "exchangeable_balanced": (
            "exchangeable", balanced_design(6, 50, unit_positions=True)),
    }[case]
    model = GroupModel(family)
    prior = PCPrior.from_quantile(model, design, icc_to_param(model, 0.5), 0.5)
    want = ELICITATIONS[case]
    assert prior.lam == want["lam"]
    got = {"quantiles": prior.quantile(np.arange(1, 100) / 100.0),
           "draws": prior.sample(500, 1),
           "mass": normalization_mass(prior)}
    for name, values in got.items():
        np.testing.assert_allclose(values, want[name], rtol=RTOL, atol=0,
                                   err_msg=name)


SIMULATIONS = {
    "exchangeable": (
        SimConfig(GroupedDesign((1, 3, 5, 1, 4)), GroupModel("exchangeable"),
                  param=0.4, beta=(1.0, 0.5, -0.3), sigma2=2.0, seed=101),
        "f0fb498a427a8e6beec9a8545c2cfbf55b34b836f8368b2e29681785dc2694fa",
        "6849d16c424159d729cf783d54688bf047775b3612c40b0153b6277a0e4c364d"),
    "ar1": (
        SimConfig(balanced_design(6, 5), GroupModel("ar1"), param=0.6,
                  beta=(0.5,), seed=102),
        "f527d1fe45f8f8d3ca3c127888a5793ac6c188ee0f556724967947b1a47469a1",
        "d53cc28498cba27fd466603cbb90cbbac5b0bb2c8382c33594b148f176fb3045"),
    "ou": (
        SimConfig(GroupedDesign((1, 4, 2, 4, 3), positions=(
            (0.0,), (0.0, 0.8, 1.9, 2.5), (0.3, 1.4), (0.0, 1.1, 1.7, 3.0),
            (0.2, 0.9, 2.2))), GroupModel("ou"), param=0.7, beta=(1.0, 0.5),
            sigma2=0.5, seed=103),
        "82e8b1637d8dd4eeb389f41fea482589b73aa3c1b22b0fbb71434ea133cb3bcc",
        "fdf5d6635bf3a2584b479e621f06257c33aafc2f92005f3511bef47c2a40cf94"),
    "ou_unit": (
        SimConfig(balanced_design(4, 6),
                  GroupModel("ou", assume_unit_spacing=True), param=0.3,
                  beta=(0.0, 1.0), seed=104),
        "5063bc9f75800f76567086be9909f005a87cfc5ca7040c9d321e8259cef057ba",
        "ffd77866830015964f34057ca345154040a5b9b33ccb4a0301bb60728324211d"),
}


@pytest.mark.parametrize("case", sorted(SIMULATIONS))
def test_simulated_data_is_pinned(case):
    config, y_digest, X_digest = SIMULATIONS[case]
    data = simulate_dataset(config)
    assert hashlib.sha256(data.y.tobytes()).hexdigest() == y_digest
    assert hashlib.sha256(data.X.tobytes()).hexdigest() == X_digest
